// Package y consumes the fact exported while analyzing package x: the
// finding below only fires if x.BadSpawn's AllocParams fact crossed the
// package boundary through the shared store.
package y

import "x"

func crossCall() {
	x.BadSpawn() // want `call to flagged function BadSpawn`
}

func fine() {
	var t x.T
	t.Note()
}

var _ = crossCall
var _ = fine
