// Package closeleak is a golden fixture for the closeleak analyzer:
// every line marked with a want comment must produce exactly one finding
// with the quoted substring, and a line ending in a bare nolint
// directive must produce the amended no-justification finding. See
// golden_test.go.
package closeleak

import (
	"snapify/internal/blob"
	"snapify/internal/snapstore"
	"snapify/internal/vfs"
)

// copyFile: the classic two-open leak — the second Create's error return
// leaves the first writer open. The error-paired facts must NOT flag the
// first `return err`: there the handle was never valid.
func copyFile(fs *vfs.FS, a, b string) error {
	w1, err := fs.Create(a) // want "is not released on the path leaving the function"
	if err != nil {
		return err
	}
	w2, err := fs.Create(b)
	if err != nil {
		return err
	}
	w2.Abort()
	return w1.Close()
}

// copyFileClean: the fix — abort the survivor on the error path.
func copyFileClean(fs *vfs.FS, a, b string) error {
	w1, err := fs.Create(a)
	if err != nil {
		return err
	}
	w2, err := fs.Create(b)
	if err != nil {
		w1.Abort()
		return err
	}
	w2.Abort()
	return w1.Close()
}

// leakOnWriteError: opened, written to, but only closed on success.
func leakOnWriteError(fs *vfs.FS, p string, content blob.Blob) error {
	w, err := fs.Create(p) // want "is not released on the path leaving the function"
	if err != nil {
		return err
	}
	if _, err := w.WriteBlob(content); err != nil {
		return err
	}
	return w.Close()
}

// deferClose: a deferred release discharges every exit at once.
func deferClose(fs *vfs.FS, p string, content blob.Blob) error {
	w, err := fs.Create(p)
	if err != nil {
		return err
	}
	defer w.Close() //nolint:errcheck // fixture: only closeleak runs here
	if _, err := w.WriteBlob(content); err != nil {
		return err
	}
	return nil
}

// alias: `own := w` moves the obligation to the new name.
func alias(fs *vfs.FS, p string) error {
	w, err := fs.Create(p)
	if err != nil {
		return err
	}
	own := w
	return own.Close()
}

// holder carries a writer whose lifetime outlives the opening function.
type holder struct{ w *vfs.Writer }

// stash: storing the handle in a returned struct is an escape — the
// obligation moved to code this intraprocedural pass cannot see.
func stash(fs *vfs.FS, p string) (*holder, error) {
	w, err := fs.Create(p)
	if err != nil {
		return nil, err
	}
	return &holder{w: w}, nil
}

func suppressed(fs *vfs.FS, p string, content blob.Blob) error {
	w, err := fs.Create(p) //nolint:closeleak // golden fixture: a justified directive suppresses the finding
	if err != nil {
		return err
	}
	_, werr := w.WriteBlob(content)
	return werr
}

// A directive with no justification must NOT suppress: the finding is
// reported with a message explaining what a directive needs.
func bareDirective(fs *vfs.FS, p string, content blob.Blob) error {
	w, err := fs.Create(p) //nolint:closeleak
	if err != nil {
		return err
	}
	_, werr := w.WriteBlob(content)
	return werr
}

// memberStats: a map-lookup accessor hands back a member's long-lived
// store. *snapstore.Store's only release-named method, Release(path),
// drops one manifest, not the store, so the lookup is no acquisition.
func memberStats(fed *snapstore.Federation, host string) (int, error) {
	st, err := fed.StoreOf(host)
	if err != nil {
		return 0, err
	}
	stats := st.Stats()
	return stats.Chunks, nil
}
