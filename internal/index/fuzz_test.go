package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"
)

// snapshotPayload strips the envelope (magic, version, length) and the
// trailing CRC from a snapshot file, returning a mutable payload copy.
func snapshotPayload(t testing.TB, file []byte) []byte {
	t.Helper()
	head := len(snapshotMagic) + 4 + 8
	if len(file) < head+4 {
		t.Fatalf("snapshot file too short: %d bytes", len(file))
	}
	return append([]byte(nil), file[head:len(file)-4]...)
}

// sealSnapshot wraps a (possibly mutated) payload in a valid envelope,
// so the reader gets past the length and CRC checks to the payload
// parser.
func sealSnapshot(payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, payload); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}

// relabel returns a copy of s's payload whose index part names backend
// code instead. The code is the first field after the key section: a
// u32 count plus two length-prefixed strings per key.
func relabel(s *Snapshot, payload []byte, code uint32) []byte {
	off := 4
	for _, k := range s.Keys {
		off += 8 + len(k.Source) + len(k.Name)
	}
	out := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(out[off:], code)
	return out
}

// allocLimit is the most ReadSnapshot may allocate for an n-byte file.
// The largest share is the bucket maps: one entry and one id per stored
// 4-byte signature.
func allocLimit(n int) uint64 { return 64*uint64(n) + 1<<20 }

// FuzzReadSnapshot feeds mutated snapshot payloads, re-sealed with a
// correct length and CRC, to ReadSnapshot. It must never panic, must
// allocate within allocLimit of the file size, and every snapshot it
// accepts must answer a query and re-save to exactly the input bytes.
func FuzzReadSnapshot(f *testing.F) {
	ctx := context.Background()
	big, err := BuildSnapshot(ctx, testStore(f, 12), snapshotTestProps(), Options{Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	small, err := BuildSnapshot(ctx, testStore(f, 2), snapshotTestProps()[:3], Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []*Snapshot{big, small} {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			f.Fatal(err)
		}
		payload := snapshotPayload(f, buf.Bytes())
		f.Add(payload)
		f.Add(relabel(s, payload, backendCodeHNSW))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := sealSnapshot(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ReadSnapshot(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, allocLimit(len(file)); got > limit {
			t.Fatalf("ReadSnapshot allocated %d bytes for a %d-byte file, limit %d", got, len(file), limit)
		}
		if err != nil {
			return
		}
		s.Neighbors(0, 3)
		var again bytes.Buffer
		if err := s.Write(&again); err != nil {
			t.Fatalf("re-Write: %v", err)
		}
		if !bytes.Equal(again.Bytes(), file) {
			t.Fatalf("accepted snapshot re-saves to different bytes (%d vs %d)", again.Len(), len(file))
		}
	})
}
