package exports

import "testing"

// A reference from a _test.go file does not count.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 3 {
		t.Fatal("TestOnly")
	}
}
