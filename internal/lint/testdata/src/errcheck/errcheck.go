// Package errcheck is a golden fixture for the errcheck analyzer: every
// line marked with a want comment must produce exactly one finding with
// the quoted substring, and a line ending in a bare nolint directive
// must produce the amended no-justification finding. See golden_test.go.
package errcheck

import "errors"

// T is a module-defined type so method calls are in scope for the rule.
type T struct{}

// Close returns an error, like every teardown in the snapshot protocol.
func (T) Close() error { return errors.New("boom") }

func work() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

func bareCall(t T) {
	work()    // want "error result of errcheck.work is discarded by the bare call"
	t.Close() // want "error result of T.Close is discarded by the bare call"
}

func goAndDefer(t T) {
	go work()       // want "error result of errcheck.work is discarded by the go statement"
	defer t.Close() // want "error result of T.Close is discarded by the deferred call"
}

func blankAssign() {
	_ = work()     // want "error result of errcheck.work is assigned to _"
	n, _ := pair() // want "error result of errcheck.pair is assigned to _"
	_ = n
}

func checked(t T) error {
	if err := work(); err != nil {
		return err
	}
	n, err := pair()
	_ = n
	if err != nil {
		return err
	}
	return t.Close()
}

func stdlibOutOfScope() {
	errors.Join(nil) // stdlib callee: the rule is scoped to module functions
}

func suppressed() {
	work() //nolint:errcheck // golden fixture: a justified directive suppresses the finding
}

// A directive with no justification must NOT suppress: the finding is
// reported with a message explaining what a directive needs.
func bareDirective() {
	work() //nolint:errcheck
}
