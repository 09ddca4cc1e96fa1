package service

import "testing"

// FuzzCursorToken: cursor tokens come back from clients, so decoding
// arbitrary text must never panic, a token that decodes re-encodes to
// the same triple, and every encoded token decodes to its inputs.
func FuzzCursorToken(f *testing.F) {
	f.Fuzz(func(t *testing.T, tok string, qhash, commits uint64, offset int) {
		if q, c, o, err := decodeCursorToken(tok); err == nil {
			q2, c2, o2, err := decodeCursorToken(encodeCursorToken(q, c, o))
			if err != nil || q2 != q || c2 != c || o2 != o {
				t.Fatalf("re-encoded %q decodes to (%x, %d, %d, %v), want (%x, %d, %d)", tok, q2, c2, o2, err, q, c, o)
			}
		}
		if offset < 0 {
			offset = ^offset // offsets are never negative
		}
		q, c, o, err := decodeCursorToken(encodeCursorToken(qhash, commits, offset))
		if err != nil || q != qhash || c != commits || o != offset {
			t.Fatalf("token for (%x, %d, %d) decodes to (%x, %d, %d, %v)", qhash, commits, offset, q, c, o, err)
		}
	})
}
