package ramfs

import (
	"errors"
	"io"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/simclock"
)

// fakeBudget is a simple capacity counter for tests.
type fakeBudget struct {
	capacity, used int64
}

func (b *fakeBudget) Reserve(n int64) error {
	if b.used+n > b.capacity {
		return errors.New("out of memory")
	}
	b.used += n
	return nil
}

func (b *fakeBudget) Release(n int64) {
	b.used -= n
	if b.used < 0 {
		panic("over-release")
	}
}

func newTestFS(capacity int64) (*FS, *fakeBudget) {
	b := &fakeBudget{capacity: capacity}
	return New(simclock.Default(), b), b
}

// readFile reads the whole file at path through Open, summing the chunk
// costs.
func readFile(t *testing.T, fs *FS, path string) (blob.Blob, simclock.Duration) {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var parts []blob.Blob
	var total simclock.Duration
	for {
		c, d, err := r.Next(4096)
		if err == io.EOF {
			return blob.Concat(parts...), total
		}
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, c)
		total += d
	}
}

func exists(fs *FS, path string) bool {
	_, err := fs.Open(path)
	return err == nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs, bud := newTestFS(1 << 20)
	content := blob.FromBytes([]byte("local store of an offload process"))
	d, err := fs.WriteFile("/tmp/coi_store_1", content)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("write cost must be positive")
	}
	got, rd := readFile(t, fs, "/tmp/coi_store_1")
	if rd <= 0 {
		t.Error("read cost must be positive")
	}
	if !blob.Equal(got, content) {
		t.Error("content mismatch")
	}
	if bud.used != content.Len() {
		t.Errorf("budget used = %d, want %d", bud.used, content.Len())
	}
}

func TestCapacityEnforced(t *testing.T) {
	fs, bud := newTestFS(1000)
	if _, err := fs.WriteFile("a", blob.Zeros(600)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("b", blob.Zeros(600)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// The failed write must not leak budget.
	if bud.used != 600 {
		t.Errorf("budget used = %d after failed write, want 600", bud.used)
	}
	// Removing frees space for the retry.
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("b", blob.Zeros(600)); err != nil {
		t.Fatalf("retry after remove failed: %v", err)
	}
}

func TestOverwriteReleasesOld(t *testing.T) {
	fs, bud := newTestFS(1000)
	fs.WriteFile("f", blob.Zeros(700))
	if _, err := fs.WriteFile("f", blob.Zeros(200)); err != nil {
		// Overwrite transiently needs old+new; with 1000 capacity and
		// 700 used, a 200-byte overwrite fits.
		t.Fatal(err)
	}
	if bud.used != 200 {
		t.Errorf("budget used = %d after overwrite, want 200", bud.used)
	}
	if got, _ := readFile(t, fs, "f"); got.Len() != 200 {
		t.Errorf("size = %d, want 200", got.Len())
	}
}

func TestStreamingWriterAbort(t *testing.T) {
	fs, bud := newTestFS(1000)
	w, err := fs.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteBlob(blob.Zeros(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteBlob(blob.Zeros(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteBlob(blob.Zeros(400)); err == nil {
		t.Fatal("third chunk should exceed capacity")
	}
	w.Abort()
	if bud.used != 0 {
		t.Errorf("budget used = %d after abort, want 0", bud.used)
	}
	if exists(fs, "big") {
		t.Error("aborted file must not be visible")
	}
}

func TestWriterVisibilityAtClose(t *testing.T) {
	fs, _ := newTestFS(1000)
	w, _ := fs.Create("f")
	w.WriteBlob(blob.FromBytes([]byte("abc")))
	if exists(fs, "f") {
		t.Error("file visible before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !exists(fs, "f") {
		t.Error("file not visible after Close")
	}
	if _, err := w.WriteBlob(blob.Zeros(1)); err == nil {
		t.Error("write after Close must fail")
	}
}

func TestReaderChunks(t *testing.T) {
	fs, _ := newTestFS(1 << 20)
	content := blob.Synthetic(9, 10*1024)
	fs.WriteFile("f", content)
	r, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != content.Len() {
		t.Errorf("Size = %d", r.Size())
	}
	var parts []blob.Blob
	for {
		c, d, err := r.Next(4096)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Error("chunk read cost must be positive")
		}
		parts = append(parts, c)
	}
	if !blob.Equal(blob.Concat(parts...), content) {
		t.Error("chunked read content mismatch")
	}
}

func TestRemoveAllAndList(t *testing.T) {
	fs, bud := newTestFS(1 << 20)
	fs.WriteFile("/tmp/coi_procs/1/a", blob.Zeros(10))
	fs.WriteFile("/tmp/coi_procs/1/b", blob.Zeros(20))
	fs.WriteFile("/tmp/other", blob.Zeros(30))
	if n := fs.RemoveAll("/tmp/coi_procs/"); n != 2 {
		t.Fatalf("RemoveAll = %d, want 2", n)
	}
	if bud.used != 30 {
		t.Errorf("budget used = %d, want 30", bud.used)
	}
	for path, want := range map[string]bool{"/tmp/coi_procs/1/a": false, "/tmp/coi_procs/1/b": false, "/tmp/other": true} {
		if exists(fs, path) != want {
			t.Errorf("%s present = %v after RemoveAll, want %v", path, !want, want)
		}
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs, _ := newTestFS(100)
	if err := fs.Remove("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove: %v", err)
	}
	if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open: %v", err)
	}
	if _, err := fs.Create(""); err == nil {
		t.Error("Create(\"\") must fail")
	}
}
