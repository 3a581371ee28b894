package fuzz

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestReproRoundTrip(t *testing.T) {
	c, err := Generate(ProfileStoreLoad, CaseSeed(9, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	findings := []Finding{{Oracle: OracleLimits, Policy: "unsafe", Kind: "watchdog", Detail: "x"}}
	r, err := NewRepro(c, []string{"unsafe"}, findings, 120)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := r.Write(dir)
	if err != nil {
		t.Fatal(err)
	}

	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name() || got.Seed != c.Seed || got.OrigInsts != 120 || !reflect.DeepEqual(got.Findings, findings) {
		t.Errorf("round trip changed metadata: %+v", got)
	}
	c2, err := got.Case()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.Prog.MarshalBinary()
	have, _ := c2.Prog.MarshalBinary()
	if string(want) != string(have) {
		t.Error("round trip changed the program image")
	}

	// No temp droppings survive a successful write.
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".repro-*")); len(tmp) != 0 {
		t.Errorf("leftover temp files: %v", tmp)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil || len(corpus) != 1 {
		t.Fatalf("LoadCorpus: %v, %v", corpus, err)
	}
}
