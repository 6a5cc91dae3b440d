package main

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"panda/internal/storage"
)

// heapDisk is an in-memory storage.Disk that stores files in fixed
// 1 MiB blocks. The in-process probe uses it instead of
// storage.MemDisk, which reallocates a file on every extending write: a
// 256 MiB share written in 1 MiB units would copy about 32 GiB, and the
// probe would measure that copying instead of the protocol.
type heapDisk struct {
	mu    sync.Mutex
	files map[string]*heapFile
}

const heapBlock = 1 << 20

type heapFile struct {
	mu     sync.Mutex
	blocks [][]byte
	size   int64
}

func newHeapDisk() *heapDisk { return &heapDisk{files: map[string]*heapFile{}} }

func (d *heapDisk) Create(name string) (storage.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := &heapFile{}
	d.files[name] = f
	return f, nil
}

func (d *heapDisk) Open(name string) (storage.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("heapdisk: open %s: no such file", name)
	}
	return f, nil
}

func (d *heapDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("heapdisk: remove %s: no such file", name)
	}
	delete(d.files, name)
	return nil
}

func (d *heapDisk) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldName]
	if !ok {
		return fmt.Errorf("heapdisk: rename %s: no such file", oldName)
	}
	delete(d.files, oldName)
	d.files[newName] = f
	return nil
}

func (d *heapDisk) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (d *heapDisk) FlushCache() {}

func (f *heapFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("heapdisk: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(p))
	for n := 0; n < len(p); {
		b, o := (off+int64(n))/heapBlock, (off+int64(n))%heapBlock
		for int64(len(f.blocks)) <= b {
			f.blocks = append(f.blocks, make([]byte, heapBlock))
		}
		n += copy(f.blocks[b][o:], p[n:])
	}
	if end > f.size {
		f.size = end
	}
	return len(p), nil
}

func (f *heapFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("heapdisk: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	want := len(p)
	if rest := f.size - off; rest < int64(want) {
		want = int(max(rest, 0))
	}
	for n := 0; n < want; {
		b, o := (off+int64(n))/heapBlock, (off+int64(n))%heapBlock
		n += copy(p[n:want], f.blocks[b][o:])
	}
	if want < len(p) {
		return want, io.EOF
	}
	return want, nil
}

func (f *heapFile) Sync() error { return nil }

func (f *heapFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size, nil
}

func (f *heapFile) Close() error { return nil }
