package hostfs

import (
	"errors"
	"io"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/simclock"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(simclock.Default())
	content := blob.FromBytes([]byte("host-side snapshot"))
	if _, err := fs.WriteFile("/snapshots/app1/ctx", content); err != nil {
		t.Fatal(err)
	}
	got, d, err := fs.ReadFile("/snapshots/app1/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("read cost must be positive")
	}
	if !blob.Equal(got, content) {
		t.Error("content mismatch")
	}
}

func TestStreamingWriterAndReader(t *testing.T) {
	fs := New(simclock.Default())
	w, err := fs.Create("stream")
	if err != nil {
		t.Fatal(err)
	}
	a := blob.FromBytes([]byte("part one|"))
	b := blob.Synthetic(4, 5000)
	w.WriteBlob(a)
	w.WriteBlob(b)
	if fs.Exists("stream") {
		t.Error("file visible before Close")
	}
	w.Close()
	r, err := fs.Open("stream")
	if err != nil {
		t.Fatal(err)
	}
	var parts []blob.Blob
	for {
		c, _, err := r.Next(1024)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, c)
	}
	if !blob.Equal(blob.Concat(parts...), blob.Concat(a, b)) {
		t.Error("streamed content mismatch")
	}
	if r.Size() != a.Len()+b.Len() {
		t.Errorf("Size = %d", r.Size())
	}
}

func TestAbortDiscards(t *testing.T) {
	fs := New(simclock.Default())
	w, _ := fs.Create("f")
	w.WriteBlob(blob.Zeros(10))
	w.Abort()
	if fs.Exists("f") {
		t.Error("aborted file visible")
	}
	if _, err := w.WriteBlob(blob.Zeros(1)); err == nil {
		t.Error("write after Abort must fail")
	}
}

func TestListRemoveAll(t *testing.T) {
	fs := New(simclock.Default())
	fs.WriteFile("/snap/1/a", blob.Zeros(1))
	fs.WriteFile("/snap/1/b", blob.Zeros(1))
	fs.WriteFile("/snap/2/a", blob.Zeros(1))
	if got := fs.List("/snap/1/"); len(got) != 2 || got[0] != "/snap/1/a" {
		t.Fatalf("List = %v", got)
	}
	if n := fs.RemoveAll("/snap/1/"); n != 2 {
		t.Fatalf("RemoveAll = %d", n)
	}
	if !fs.Exists("/snap/2/a") {
		t.Error("unrelated file removed")
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs := New(simclock.Default())
	if _, _, err := fs.ReadFile("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadFile: %v", err)
	}
	if err := fs.Remove("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove: %v", err)
	}
	if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open: %v", err)
	}
	if _, err := fs.Size("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Size: %v", err)
	}
}
