package vfs

import (
	"testing"
)

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
