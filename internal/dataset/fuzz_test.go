package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// validJSONSeed serialises a well-formed dataset as a fuzz seed.
func validJSONSeed() []byte {
	d := &Dataset{
		Name:    "seed",
		Sources: []string{"s1", "s2"},
		Props: []Property{
			{Source: "s1", Name: "weight", Ref: "weight"},
			{Source: "s2", Name: "mass", Ref: "weight"},
		},
		Instances: []Instance{
			{Source: "s1", Entity: "e1", Property: "weight", Value: "1.2 kg"},
			{Source: "s2", Entity: "e9", Property: "mass", Value: "1200 g"},
		},
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadJSON: the strict loader must never panic, and anything it
// accepts must pass strict validation.
func FuzzReadJSON(f *testing.F) {
	f.Add(validJSONSeed())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","sources":["a","a"]}`))
	f.Add([]byte(`{"name":"x","sources":[""],"properties":[{"source":"","name":""}]}`))
	f.Add([]byte(`{"name":"x","instances":[{"source":"ghost","entity":"e","property":"p","value":"v"}]}`))
	f.Add([]byte("{\"name\":\"\xff\xfe\"}"))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d == nil {
			t.Fatal("nil dataset with nil error")
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("ReadJSON accepted a dataset its own Validate rejects: %v", verr)
		}
	})
}

// FuzzReadJSONQuarantine: the lenient loader must never panic, and its
// salvaged output must always pass strict validation — that is the whole
// point of quarantining.
func FuzzReadJSONQuarantine(f *testing.F) {
	f.Add(validJSONSeed())
	f.Add([]byte(`{"name":"x","sources":["a","a",""],"properties":[{"source":"a","name":"p"},{"source":"a","name":"p"}]}`))
	f.Add([]byte("{\"name\":\"x\",\"sources\":[\"ok\",\"\xff\"]}"))
	f.Add([]byte(`{"sources":["a"],"instances":[{"source":"a","entity":"","property":"p","value":"v"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		clean, dropped, err := ReadJSONQuarantine(bytes.NewReader(data))
		if err != nil {
			return // malformed JSON is the only hard failure
		}
		if clean == nil {
			t.Fatal("nil dataset with nil error")
		}
		if verr := clean.Validate(); verr != nil {
			t.Fatalf("quarantined dataset still invalid: %v (dropped %d)", verr, len(dropped))
		}
	})
}

// TestFuzzSeedsAreMeaningful pins the seed corpus behaviour so the fuzz
// targets keep exercising both accept and reject paths.
func TestFuzzSeedsAreMeaningful(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader(validJSONSeed())); err != nil {
		t.Fatalf("valid seed rejected: %v", err)
	}
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","sources":["a","a"]}`)); err == nil {
		t.Fatal("duplicate-source seed accepted by strict loader")
	}
	if _, _, err := ReadJSONQuarantine(strings.NewReader(`{"name":"x","sources":["a","a"]}`)); err != nil {
		t.Fatalf("lenient loader failed on quarantinable input: %v", err)
	}
}
