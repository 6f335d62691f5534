// Package user references the exports the fixture counts as used. It is not
// an internal package, so its own exports are not checked.
package user

import "fplint.test/src/unusedexport/internal/exports"

// Total reaches Area only through the Shape interface.
func Total() float64 {
	var s exports.Shape = exports.Default
	return s.Area() + float64(exports.Used())
}
