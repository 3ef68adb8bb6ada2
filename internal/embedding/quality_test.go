package embedding

import (
	"testing"
)

func TestMeasureQualitySeparatesGroups(t *testing.T) {
	cfg := DefaultGloVeConfig()
	cfg.Dim = 16
	cfg.Epochs = 40
	s, err := TrainGloVe(synonymCorpus(150, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.MeasureQuality([][]string{
		{"megapixels", "mp", "resolution"},
		{"weight", "mass", "grams"},
	})
	if rep.Groups != 2 {
		t.Errorf("groups = %d", rep.Groups)
	}
	if rep.Separation <= 0 {
		t.Errorf("separation = %v, want positive", rep.Separation)
	}
	if rep.WithinMean <= rep.CrossMean {
		t.Errorf("within %v should exceed cross %v", rep.WithinMean, rep.CrossMean)
	}
	if rep.OOVRate != 0 {
		t.Errorf("oov = %v for all-known probes", rep.OOVRate)
	}
	if rep.Overlap < 0 || rep.Overlap > 1 {
		t.Errorf("overlap = %v", rep.Overlap)
	}
}

func TestMeasureQualityOOV(t *testing.T) {
	s, _ := NewStore([]string{"known"}, 2, []float64{1, 0})
	rep := s.MeasureQuality([][]string{{"known", "unknown"}})
	if rep.OOVRate != 0.5 {
		t.Errorf("OOVRate = %v, want 0.5", rep.OOVRate)
	}
}

func TestMeasureQualityEmpty(t *testing.T) {
	s, _ := NewStore([]string{"w"}, 1, []float64{1})
	rep := s.MeasureQuality(nil)
	if rep.Groups != 0 || rep.Separation != 0 {
		t.Errorf("empty report = %+v", rep)
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median")
	}
	if median(nil) != 0 {
		t.Error("empty median")
	}
}
