// Package x is the fact-producing half of the framework's own
// multi-package fixture: BadSpawn exports an AllocParams fact that the
// sibling fixture package y must see at its call sites.
package x

// T carries a method so ObjectKey's method shape is covered.
type T struct{}

// Note is a method; its key must name the receiver type.
func (T) Note() {}

// BadSpawn is flagged by the toy mark analyzer and exported as a fact.
func BadSpawn() {
	shadow := 1
	_ = shadow
}

func use() {
	BadSpawn() // want `call to flagged function BadSpawn`
}

// Bad exists so TestObjectKeyLocals can assert the plain-function key.
func Bad() {}

var _ = use
