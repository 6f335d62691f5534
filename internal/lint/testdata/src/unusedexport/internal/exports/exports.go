// Fixture for the unusedexport analyzer: the exports of an internal package,
// some referenced by a non-test file of the program and some not.
package exports

import "fmt"

// Shape is an interface declared in the fixture module.
type Shape interface{ Area() float64 }

// Square is referenced by its own methods and by Default.
type Square struct{ Side float64 }

// Area implements Shape, so it is exempt although no file names it.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer, an interface of an imported package.
func (s Square) String() string { return fmt.Sprintf("square %v", s.Side) }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want `exported method Square.Perimeter is referenced by no non-test file`

// Default is referenced by package user.
var Default = Square{Side: 1}

// Used is referenced by package user.
func Used() int { return 1 }

func Unused() int { return 2 } // want `exported func Unused is referenced by no non-test file`

func TestOnly() int { return 3 } // want `exported func TestOnly is referenced by no non-test file`

const Limit = 4 // want `exported const Limit is referenced by no non-test file`

type hidden struct{}

// Method is on an unexported type, so it is not checked.
func (hidden) Method() {}

//lint:ignore unusedexport a justified exception is annotated like any other finding
func Suppressed() {}
