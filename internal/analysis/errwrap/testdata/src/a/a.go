package a

import (
	"errors"
	"fmt"
)

// structured is an error type that carries classification.
type structured struct{ retry bool }

func (e *structured) Error() string   { return "structured" }
func (e *structured) Retryable() bool { return e.retry }

var errBase = errors.New("base")

func wrapped() error {
	return fmt.Errorf("context: %w", errBase) // %w preserves the chain
}

func flattenedV(err error) error {
	return fmt.Errorf("context: %v", err) // want `error formatted with %v flattens it`
}

func flattenedS(err error) error {
	return fmt.Errorf("context: %s", err) // want `error formatted with %s flattens it`
}

func flattenedStructured(e *structured) error {
	return fmt.Errorf("retry info lost: %v", e) // want `error formatted with %v flattens it`
}

func mixedArgs(err error, n int) error {
	// The int is fine; the error is not.
	return fmt.Errorf("part %d failed: %v", n, err) // want `error formatted with %v flattens it`
}

func flattenedJoined(name string, fails []error) error {
	// The abort-and-rerun give-up shape: the error is a call result.
	return fmt.Errorf("%s gave up after %d attempts: %v", name, len(fails), errors.Join(fails...)) // want `error formatted with %v flattens it`
}

func widthStar(err error, w int) error {
	// %*d consumes two args (width + int); the error still flattens.
	return fmt.Errorf("pad %*d: %s", w, 7, err) // want `error formatted with %s flattens it`
}

func percentLiteral(err error) error {
	return fmt.Errorf("100%% failure: %w", err) // %% consumes no arg
}

func nonErrorArgs(name string, n int) error {
	return fmt.Errorf("%s: %d rows", name, n) // no error-typed args
}

func plusV(err error) error {
	return fmt.Errorf("dump: %+v", err) // want `error formatted with %v flattens it`
}

func indexed(err error) error {
	// Indexed arguments are out of scope; the analyzer bails.
	return fmt.Errorf("%[1]v", err)
}

func nonConstant(f string, err error) error {
	return fmt.Errorf(f, err) // non-constant format: unverifiable, skipped
}
