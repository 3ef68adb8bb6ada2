package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"leapme/internal/mathx"
	"leapme/internal/nn"
)

func TestModelRoundTrip(t *testing.T) {
	d := smallDataset(t, 21)
	store := getStore(t)
	m, err := NewMatcher(store, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	m.ComputeFeatures(context.Background(), d)
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(3))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh matcher, same geometry, loaded model.
	m2, err := NewMatcher(store, DefaultOptions(99))
	if err != nil {
		t.Fatal(err)
	}
	m2.ComputeFeatures(context.Background(), d)
	if err := m2.ReadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if !m2.Trained() {
		t.Fatal("loaded matcher not trained")
	}

	// Identical scores on every pair we probe.
	a, b := d.Props[0].Key(), d.Props[len(d.Props)-1].Key()
	s1, err := m.Score(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Score(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Score != s2.Score {
		t.Errorf("scores differ after round trip: %v vs %v", s1.Score, s2.Score)
	}
}

func TestWriteModelUntrained(t *testing.T) {
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err == nil {
		t.Error("untrained WriteModel accepted")
	}
}

func TestReadModelGarbage(t *testing.T) {
	m, _ := NewMatcher(getStore(t), DefaultOptions(1))
	if err := m.ReadModel(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage model accepted")
	}
}

// TestReadModelCorruption drives ReadModel through every rejection path
// of the v2 format: wrong magic, unknown version, truncation at each
// section boundary, and a bit flip caught by the checksum. A failed read
// must never leave the matcher partially loaded.
func TestReadModelCorruption(t *testing.T) {
	d := smallDataset(t, 23)
	store := getStore(t)
	m, _ := NewMatcher(store, DefaultOptions(1))
	if err := m.ComputeFeatures(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(1))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func([]byte) []byte) []byte {
		c := append([]byte(nil), good...)
		return mutate(c)
	}
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "magic"},
		{"bad magic", corrupt(func(b []byte) []byte {
			copy(b, "NOTAMODL")
			return b
		}), "not a LEAPME model file"},
		{"future version", corrupt(func(b []byte) []byte {
			b[8] = 99 // version field follows the 8-byte magic
			return b
		}), "unsupported model format version"},
		{"truncated header", good[:10], ""},
		{"truncated payload", good[:len(good)-40], "truncated"},
		{"missing checksum", good[:len(good)-2], "checksum"},
		{"bit flip in payload", corrupt(func(b []byte) []byte {
			b[len(b)/2] ^= 0x40 // middle of the payload, not the header
			return b
		}), "corrupt"},
		{"implausible length", corrupt(func(b []byte) []byte {
			// payloadLen is the 8 bytes after magic+version.
			for i := 12; i < 20; i++ {
				b[i] = 0xff
			}
			return b
		}), "implausible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m2, _ := NewMatcher(store, DefaultOptions(1))
			err := m2.ReadModel(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt model accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			if m2.Trained() {
				t.Error("matcher trained after failed read")
			}
		})
	}

	// And the pristine bytes still load, proving the cases above failed
	// because of the corruption, not the harness.
	m3, _ := NewMatcher(store, DefaultOptions(1))
	if err := m3.ReadModel(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine model rejected: %v", err)
	}
	if !m3.Trained() {
		t.Error("pristine model loaded but matcher not trained")
	}
}

func TestReadModelDimMismatch(t *testing.T) {
	d := smallDataset(t, 22)
	store := getStore(t)
	m, _ := NewMatcher(store, DefaultOptions(1))
	m.ComputeFeatures(context.Background(), d)
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(1))
	if _, err := m.Train(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	// Matcher with a different feature configuration → different pair dim.
	opts := DefaultOptions(1)
	opts.Features.Instances = false
	m2, _ := NewMatcher(store, opts)
	if err := m2.ReadModel(&buf); err == nil {
		t.Error("dim mismatch accepted")
	}
	// A network with a single output class has no positive class to
	// score: the load must fail and leave the matcher untrained.
	one, err := nn.New(nn.Config{InDim: m.PairDim(), Hidden: []int{4}, Out: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.net = one
	buf.Reset()
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	m3, _ := NewMatcher(store, DefaultOptions(1))
	if err := m3.ReadModel(&buf); err == nil || m3.Trained() {
		t.Errorf("one-class model accepted (err %v)", err)
	}
}
