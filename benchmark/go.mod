// The benchmark is its own module so the program's `go build ./...` and
// `go test ./...` never compile it. The module path keeps the `fudj/`
// prefix so the layer-replay code may import fudj/internal/... .
module fudj/benchmark

go 1.24

require fudj v0.0.0

replace fudj => ../
