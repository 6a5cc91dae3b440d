package main

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// The data pattern: word i of node n's chunk of array id at version v
// is mix(key(seed, id, v, n) + i). Writes fill buffers from it and reads
// are checked against it, so no second copy of the data is kept.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func patternKey(seed int64, id, version uint64, node int) uint64 {
	return mix(mix(mix(mix(uint64(seed))+id)+version) + uint64(node))
}

// eachNode runs f on every node's buffer, in parallel when the buffers
// are large enough for it to pay.
func eachNode(bufs [][]byte, f func(node int, buf []byte) error) error {
	if len(bufs) == 1 || len(bufs[0]) < 1<<22 {
		for n, b := range bufs {
			if err := f(n, b); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(bufs))
	var wg sync.WaitGroup
	for n, b := range bufs {
		wg.Add(1)
		go func(n int, b []byte) {
			defer wg.Done()
			errs[n] = f(n, b)
		}(n, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillPattern writes version v of array id into the node buffers.
// Buffer lengths are multiples of 8 (float32 cubes of even side).
func fillPattern(bufs [][]byte, seed int64, id, v uint64) {
	eachNode(bufs, func(n int, b []byte) error { //nolint:errcheck // f never fails
		k := patternKey(seed, id, v, n)
		for i := 0; i+8 <= len(b); i += 8 {
			binary.LittleEndian.PutUint64(b[i:], mix(k+uint64(i>>3)))
		}
		return nil
	})
}

// poison overwrites the buffers before a read, so a read that leaves a
// byte unwritten cannot pass the check on the previous contents.
func poison(bufs [][]byte) {
	eachNode(bufs, func(_ int, b []byte) error { //nolint:errcheck // f never fails
		clear(b)
		return nil
	})
}

// checkPattern reports the first byte where the buffers differ from
// version v.
func checkPattern(bufs [][]byte, seed int64, id, v uint64) error {
	return eachNode(bufs, func(n int, b []byte) error { return checkChunk(b, seed, id, v, n) })
}

// checkChunk checks one node's chunk against version v.
func checkChunk(b []byte, seed int64, id, v uint64, node int) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("node %d: buffer length %d is not a multiple of 8", node, len(b))
	}
	k := patternKey(seed, id, v, node)
	for i := 0; i < len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != mix(k+uint64(i>>3)) {
			return fmt.Errorf("node %d: bytes %d..%d differ from version %d", node, i, i+8, v)
		}
	}
	return nil
}

// verifyAny checks the buffers against each candidate version, newest
// first, and returns the one they hold.
func verifyAny(bufs [][]byte, seed int64, id uint64, want []uint64) (uint64, error) {
	var err error
	for i := len(want) - 1; i >= 0; i-- {
		if err = checkPattern(bufs, seed, id, want[i]); err == nil {
			return want[i], nil
		}
	}
	return 0, fmt.Errorf("bit-exact check failed: %w", err)
}
