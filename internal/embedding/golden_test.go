package embedding

import (
	"bytes"
	"hash/crc32"
	"os"
	"testing"

	"leapme/internal/domain"
)

// goldenGloVeCRC pins the CRC-32 of Store.WriteTo's bytes for the GloVe
// store the repository benchmark trains: the corpus of the cameras,
// headphones, phones and tvs categories at 120 sentences per property
// (seed 1), and DefaultGloVeConfig with Dim 32 and Seed 1 (832,062
// bytes, 3,148 words). A drift means the GloVe training arithmetic
// changed, which changes every feature built on the store; a change that
// only makes training faster must keep these bytes.
//
// Regenerate (only after a deliberate change to GloVe arithmetic):
// LEAPME_WRITE_GOLDEN=1 go test ./internal/embedding -run GloVeGolden -v
const goldenGloVeCRC = 0xf9c7099d

func TestGloVeGoldenBytes(t *testing.T) {
	all := domain.Categories()
	cats := []*domain.Category{all["cameras"], all["headphones"], all["phones"], all["tvs"]}
	corpus := domain.Corpus(cats, domain.CorpusConfig{SentencesPerProp: 120, Seed: 1})
	cfg := DefaultGloVeConfig()
	cfg.Dim = 32
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
		t.Logf("golden GloVe CRC: %#08x over %d bytes, %d words (update goldenGloVeCRC)", crc, buf.Len(), s.Size())
		return
	}
	if crc != goldenGloVeCRC {
		t.Errorf("store CRC = %08x over %d bytes, want %08x — GloVe training arithmetic drifted", crc, buf.Len(), goldenGloVeCRC)
	}
}
