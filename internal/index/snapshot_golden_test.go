package index

import (
	"bytes"
	"context"
	"hash/crc32"
	"testing"

	"leapme/internal/dataset"
)

// goldenSnapshotCRC pins the bytes of one LSH snapshot: the CRC-32
// (IEEE) of the whole file that Snapshot.Write emits for
// snapshotTestProps over testStore(t, 12) at seed 5. Determinism tests
// only compare two builds of the same code; this constant also catches
// a change that moves every build the same way (hyperplane draws,
// adaptive bits, centering, field order). Update it only with a
// deliberate format change.
const goldenSnapshotCRC = 0x9d65063b

// snapshotTestProps returns half of a fixed name list per source, over
// three sources, plus a duplicate of the first property that
// BuildSnapshot must collapse.
func snapshotTestProps() []dataset.Property {
	names := []string{
		"camera resolution", "sensor resolution", "optical zoom", "zoom",
		"battery weight", "weight", "price", "screen resolution",
		"video audio", "flash", "lens", "battery",
	}
	var props []dataset.Property
	for si, src := range []string{"s1", "s2", "s3"} {
		for ni, n := range names {
			if (si+ni)%2 == 0 {
				props = append(props, dataset.Property{Source: src, Name: n})
			}
		}
	}
	return append(props, props[0])
}

func TestGoldenSnapshotBytes(t *testing.T) {
	snap, err := BuildSnapshot(context.Background(), testStore(t, 12), snapshotTestProps(), Options{Seed: 5})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != goldenSnapshotCRC {
		t.Fatalf("snapshot CRC-32 = %#08x over %d bytes, want %#08x: the LSH snapshot bytes changed",
			got, buf.Len(), goldenSnapshotCRC)
	}
}
