package vfs

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// contentFS builds a file system of deterministic pseudo-random content
// files, including empty files and one several scan blocks long.
func contentFS(t *testing.T, n int) *FS {
	t.Helper()
	fs := NewFS()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		size := r.Intn(8000)
		if i%17 == 0 {
			size = 0
		}
		data := make([]byte, size)
		r.Read(data)
		if err := fs.Add(BytesFile(fmt.Sprintf("f/%04d.bin", i), data)); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 5<<20)
	r.Read(big)
	if err := fs.Add(BytesFile("f/big.bin", big)); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestBuildManifestWorkerCountInvariant(t *testing.T) {
	fs := contentFS(t, 120)
	serial, err := buildManifest(context.Background(), fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 16} {
		m, err := buildManifest(context.Background(), fs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(m, serial) {
			t.Errorf("workers=%d: manifest differs from serial", workers)
		}
	}
	if err := serial.VerifyCtx(context.Background(), fs); err != nil {
		t.Fatal(err)
	}
}

func TestListAndSizesCacheInvalidation(t *testing.T) {
	fs := NewFS()
	for _, name := range []string{"b", "a", "c"} {
		if err := fs.Add(NewFile(name, int64(len(name)))); err != nil {
			t.Fatal(err)
		}
	}
	l1 := fs.List()
	if len(l1) != 3 || l1[0].Name != "a" {
		t.Fatalf("list = %+v", l1)
	}
	if &fs.List()[0] != &l1[0] {
		t.Error("repeated List did not reuse the cached snapshot")
	}
	s1 := fs.Sizes()
	if err := fs.Add(NewFile("aa", 9)); err != nil {
		t.Fatal(err)
	}
	l2 := fs.List()
	if len(l2) != 4 || l2[1].Name != "aa" {
		t.Fatalf("list after add = %+v", l2)
	}
	if len(fs.Sizes()) != 4 || len(s1) != 3 {
		t.Error("sizes cache not invalidated on add")
	}
}

func TestReadIntoReusesBuffer(t *testing.T) {
	f := BytesFile("x", []byte("hello world"))
	buf := make([]byte, 0, 64)
	data, err := f.ReadInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Errorf("content = %q", data)
	}
	if &data[0] != &buf[:1][0] {
		t.Error("ReadInto allocated despite sufficient capacity")
	}
	// Undersized buffer: a fresh allocation, same content.
	data2, err := f.ReadInto(make([]byte, 0, 4))
	if err != nil || string(data2) != "hello world" {
		t.Errorf("undersized ReadInto: %q, %v", data2, err)
	}
}
