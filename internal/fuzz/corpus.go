package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/journal"
)

// ReproVersion is the on-disk repro format version.
const ReproVersion = 1

// Repro is one persisted finding: the (shrunk) program as a LEV64 binary
// image plus everything needed to re-judge it deterministically — the
// oracle replay test reloads these and re-runs the full stack.
type Repro struct {
	Version   int       `json:"version"`
	Name      string    `json:"name"`
	Seed      uint64    `json:"seed"`
	Index     int       `json:"index"`
	Profile   Profile   `json:"profile"`
	TimingDep bool      `json:"timing_dep,omitempty"`
	Secret    byte      `json:"secret,omitempty"`
	Policies  []string  `json:"policies,omitempty"` // policies the verdict ran under
	Binary    []byte    `json:"binary"`             // isa.Program image (base64 in JSON)
	Insts     int       `json:"insts"`
	OrigInsts int       `json:"orig_insts,omitempty"` // pre-shrink size (0: not shrunk)
	Findings  []Finding `json:"findings,omitempty"`
	Listing   string    `json:"listing,omitempty"` // disassembly, for humans
}

// NewRepro packages a judged case for persistence.
func NewRepro(c *Case, policies []string, findings []Finding, origInsts int) (*Repro, error) {
	img, err := c.Prog.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("fuzz: marshal repro: %w", err)
	}
	r := &Repro{
		Version: ReproVersion, Name: c.Name(),
		Seed: c.Seed, Index: c.Index, Profile: c.Profile,
		TimingDep: c.TimingDep, Secret: c.Secret,
		Policies: policies, Binary: img, Insts: len(c.Prog.Text),
		Findings: findings, Listing: engine.Listing(c.Prog),
	}
	if origInsts > len(c.Prog.Text) {
		r.OrigInsts = origInsts
	}
	return r, nil
}

// Case reconstructs the runnable case from a loaded repro.
func (r *Repro) Case() (*Case, error) {
	prog := new(isa.Program)
	if err := prog.UnmarshalBinary(r.Binary); err != nil {
		return nil, fmt.Errorf("fuzz: repro %s: %w", r.Name, err)
	}
	return &Case{
		Seed: r.Seed, Index: r.Index, Profile: r.Profile,
		Prog: prog, TimingDep: r.TimingDep, Secret: r.Secret,
	}, nil
}

// FileName is the repro's stable corpus file name.
func (r *Repro) FileName() string { return r.Name + ".json" }

// Write persists the repro into dir crash-safely (journal.WriteAtomic: temp
// file, fsync, atomic rename) — a crash leaves either the old state or the
// complete new file, never a torn repro.
func (r *Repro) Write(dir string) (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("fuzz: encode repro: %w", err)
	}
	b = append(b, '\n')
	path := filepath.Join(dir, r.FileName())
	if err := journal.WriteAtomic(path, b); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads one repro file.
func LoadRepro(path string) (*Repro, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(Repro)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("fuzz: parse repro %s: %w", path, err)
	}
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("fuzz: repro %s: version %d, want %d", path, r.Version, ReproVersion)
	}
	return r, nil
}

// LoadCorpus reads every repro in dir, sorted by file name for
// deterministic replay order.
func LoadCorpus(dir string) ([]*Repro, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Repro
	for _, p := range paths {
		r, err := LoadRepro(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
