package embedding

import (
	"bytes"
	"hash/crc32"
	"os"
	"testing"

	"leapme/internal/domain"
	"leapme/internal/mathx"
)

// goldenGloVe pins the CRC-32 of Store.WriteTo's bytes for two GloVe
// stores trained on the corpus of the cameras, headphones, phones and
// tvs categories at 120 sentences per property (seed 1; 3,148 words):
//
//   - dim32 is the store the repository benchmark trains,
//     DefaultGloVeConfig with Dim 32 and Seed 1 (832,062 bytes);
//   - dim50 is DefaultGloVeConfig itself (Dim 50, Seed 1; 1,285,374
//     bytes). 50 is not a multiple of 4, so it also covers the AVX
//     AdaGrad routine's scalar tail.
//
// A drift means the GloVe training arithmetic changed, which changes
// every feature built on the store; a change that only makes training
// faster must keep these bytes, on the AVX path and the generic one.
//
// Regenerate (only after a deliberate change to GloVe arithmetic):
// LEAPME_WRITE_GOLDEN=1 go test ./internal/embedding -run GloVeGolden -v
var goldenGloVe = []struct {
	name string
	dim  int
	crc  uint32
}{
	{"dim32", 32, 0xf9c7099d},
	{"dim50", 50, 0x3cddd264},
}

// goldenCorpus is the four-category corpus the golden stores train on,
// the one `leapme embed` and the repository benchmark use.
func goldenCorpus() [][]string {
	all := domain.Categories()
	cats := []*domain.Category{all["cameras"], all["headphones"], all["phones"], all["tvs"]}
	return domain.Corpus(cats, domain.CorpusConfig{SentencesPerProp: 120, Seed: 1})
}

func TestGloVeGoldenBytes(t *testing.T) {
	corpus := goldenCorpus()
	for _, g := range goldenGloVe {
		for _, avx := range []bool{true, false} {
			path := "generic"
			if avx {
				path = "avx"
			}
			t.Run(g.name+"/"+path, func(t *testing.T) {
				if avx && !mathx.HasAVX() {
					t.Skip("no AVX: the generic arm is the only path")
				}
				defer func(saved bool) { useAVX = saved }(useAVX)
				useAVX = avx
				cfg := DefaultGloVeConfig()
				cfg.Dim = g.dim
				cfg.Seed = 1
				s, err := TrainGloVe(corpus, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := s.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				crc := crc32.ChecksumIEEE(buf.Bytes())
				if os.Getenv("LEAPME_WRITE_GOLDEN") == "1" {
					t.Logf("golden GloVe CRC: %#08x over %d bytes, %d words (update goldenGloVe %s)", crc, buf.Len(), s.Size(), g.name)
					return
				}
				if crc != g.crc {
					t.Errorf("store CRC = %08x over %d bytes, want %08x — GloVe training arithmetic drifted", crc, buf.Len(), g.crc)
				}
			})
		}
	}
}
