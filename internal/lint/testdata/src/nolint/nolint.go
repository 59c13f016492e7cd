// Package nolint is a golden fixture for the stale-directive rule: every
// analyzer runs over it, and each line marked with a want comment must
// produce exactly one finding about its //nolint directive. See
// golden_test.go.
package nolint

import "errors"

// suppresses: a justified directive that meets its finding stays silent.
func suppresses() {
	panic("unreachable") //nolint:paniclib // golden fixture: the directive suppresses the panic
}

// stale: the code the directive was written for is gone.
func stale() error {
	return errors.New("no panic here") //nolint:paniclib // golden fixture: nothing left to suppress // want "//nolint:paniclib suppresses nothing on this line"
}

// unknown: a directive naming an analyzer that is not registered.
func unknown() int {
	return 1 //nolint:mutexblock // golden fixture: no such analyzer // want "//nolint:mutexblock names no registered analyzer"
}
