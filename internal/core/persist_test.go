package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
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
// of the envelope: wrong magic, unknown version, truncation at each
// section boundary, a bit flip caught by the checksum, and a payload
// that continues past the network. A failed read
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
		{"trailing bytes after the network", rebuildEnvelope(append(modelPayload(t, good), 0), modelVersion), "trailing"},
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

// modelPayload strips the envelope (magic, version, length) and trailing
// CRC from a serialised model, returning a mutable payload copy.
func modelPayload(t testing.TB, data []byte) []byte {
	t.Helper()
	head := len(matcherMagic) + 4 + 8
	if len(data) < head+4 {
		t.Fatalf("model file too short: %d bytes", len(data))
	}
	return append([]byte(nil), data[head:len(data)-4]...)
}

// rebuildEnvelope re-wraps a (possibly mutated) payload with a format
// version and a correct length and CRC, so corruption tests exercise the
// descriptor and block parsers rather than the checksum.
func rebuildEnvelope(payload []byte, version uint32) []byte {
	var out bytes.Buffer
	out.WriteString(matcherMagic)
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[:4], version)
	out.Write(buf[:4])
	binary.LittleEndian.PutUint64(buf, uint64(len(payload)))
	out.Write(buf)
	out.Write(payload)
	binary.LittleEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(payload))
	out.Write(buf[:4])
	return out.Bytes()
}

// TestQuantDescriptorFailsClosed: a file whose descriptor sets the
// quantisation bit is rejected with ErrQuantizedModel by ReadModel AND
// LoadInfo, whatever follows the descriptor, and never loads the float64
// network it may also carry. An unknown bit is rejected too.
func TestQuantDescriptorFailsClosed(t *testing.T) {
	plain := goldenMatcher(t)
	var pbuf bytes.Buffer
	if err := plain.WriteModel(&pbuf); err != nil {
		t.Fatal(err)
	}
	quant, err := os.ReadFile(goldenPath("model_v3q.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Payload offsets: 8-byte descriptor, 4-byte standardiser length,
	// dim×16 standardiser, then the 8-byte quant block length prefix.
	quantLenOff := 8 + 4 + plain.PairDim()*16
	quantBlockOff := quantLenOff + 8

	cases := []struct {
		name    string
		data    []byte
		wantErr error  // matched with errors.Is when set
		wantSub string // matched against the message otherwise
	}{
		{
			name: "quant bit set without a block",
			data: func() []byte {
				p := modelPayload(t, pbuf.Bytes())
				p[0] |= featBitQuantized
				return rebuildEnvelope(p, modelVersion)
			}(),
			wantErr: ErrQuantizedModel,
		},
		{
			name: "unknown descriptor bit",
			data: func() []byte {
				p := modelPayload(t, pbuf.Bytes())
				p[0] |= 1 << 5
				return rebuildEnvelope(p, modelVersion)
			}(),
			wantSub: "unknown feature bits",
		},
		{
			name: "implausible quant block length",
			data: func() []byte {
				p := modelPayload(t, quant)
				binary.LittleEndian.PutUint64(p[quantLenOff:], 1<<40)
				return rebuildEnvelope(p, modelVersion)
			}(),
			wantErr: ErrQuantizedModel,
		},
		{
			name: "corrupt quant kernel magic",
			data: func() []byte {
				p := modelPayload(t, quant)
				p[quantBlockOff] ^= 0xff
				return rebuildEnvelope(p, modelVersion)
			}(),
			wantErr: ErrQuantizedModel,
		},
		{
			name: "quant block truncating the kernel",
			data: func() []byte {
				p := modelPayload(t, quant)
				blen := binary.LittleEndian.Uint64(p[quantLenOff:])
				binary.LittleEndian.PutUint64(p[quantLenOff:], blen-2)
				return rebuildEnvelope(p, modelVersion)
			}(),
			wantErr: ErrQuantizedModel,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				switch {
				case err == nil:
					t.Errorf("%s accepted the file", what)
				case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
					t.Errorf("%s error %q is not %q", what, err, tc.wantErr)
				case tc.wantErr == nil && !strings.Contains(err.Error(), tc.wantSub):
					t.Errorf("%s error %q does not contain %q", what, err, tc.wantSub)
				}
			}
			_, err := LoadInfo(bytes.NewReader(tc.data))
			check("LoadInfo", err)
			fresh := goldenMatcher(t)
			net, sc := fresh.net, fresh.sc
			check("ReadModel", fresh.ReadModel(bytes.NewReader(tc.data)))
			if fresh.net != net || fresh.sc != sc {
				t.Error("matcher modified by a failed load")
			}
		})
	}
}
