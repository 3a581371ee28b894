package engine

import (
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"levioso/internal/core"
	"levioso/internal/cpu"
)

// TestCacheKeyDefaultBDT: BDTEntries 0 means a core.NumSlots-entry table,
// so the two spellings of the default core share one key, and any other
// size keys apart.
func TestCacheKeyDefaultBDT(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(entries int) string {
		cfg := cpu.DefaultConfig()
		cfg.BDTEntries = entries
		k, ok := CacheKey(prog, "levioso", cfg, false, false)
		if !ok {
			t.Fatalf("BDTEntries %d: uncacheable", entries)
		}
		return k
	}
	def := keyOf(0)
	for _, tc := range []struct {
		entries int
		same    bool
	}{
		{core.NumSlots, true},
		{32, false},
		{1, false},
	} {
		if got := keyOf(tc.entries) == def; got != tc.same {
			t.Errorf("BDTEntries %d keys like the default core: %v, want %v", tc.entries, got, tc.same)
		}
	}
}

// TestCacheKeyCoversConfig walks cpu.Config by reflection — the predictor,
// the hierarchy and its three cache levels included — and perturbs every
// scalar field in turn: each perturbation must yield a key of its own. Every
// hook field (func, pointer or interface) must make the key uncacheable. A
// field added to the configuration without being added to the key encoding
// fails here.
func TestCacheKeyCoversConfig(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	base, ok := CacheKey(prog, "levioso", cpu.DefaultConfig(), false, false)
	if !ok {
		t.Fatal("default config should be cacheable")
	}
	seen := map[string]string{base: "(default)"}
	cfg := cpu.DefaultConfig()
	key := func() (string, bool) { return CacheKey(prog, "levioso", cfg, false, false) }
	scalars, hooks := 0, 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			switch f.Kind() {
			case reflect.Struct:
				walk(name+".", f)
				continue
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.25)
			case reflect.Func, reflect.Pointer, reflect.Interface:
				hooks++
				setHook(t, name, f)
				if _, ok := key(); ok {
					t.Errorf("hook %s set: the key must be uncacheable", name)
				}
				f.Set(old)
				continue
			default:
				t.Fatalf("field %s has kind %v: teach the key encoding and this test about it", name, f.Kind())
			}
			scalars++
			if k, ok := key(); !ok {
				t.Errorf("perturbing %s made the key uncacheable", name)
			} else if prev, dup := seen[k]; dup {
				t.Errorf("perturbing %s gives the key of %s: the field is not keyed", name, prev)
			} else {
				seen[k] = name
			}
			f.Set(old)
		}
	}
	walk("", reflect.ValueOf(&cfg).Elem())
	if scalars < 40 || hooks != 5 {
		t.Errorf("walked %d scalar and %d hook fields; want at least 40 and exactly 5", scalars, hooks)
	}

	for _, c := range []struct {
		name           string
		policy         string
		useRef, verify bool
	}{{"policy", "delay", false, false}, {"useRef", "levioso", true, false}, {"verify", "levioso", false, true}} {
		k, _ := CacheKey(prog, c.policy, cpu.DefaultConfig(), c.useRef, c.verify)
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s gives the key of %s", c.name, prev)
		}
		seen[k] = c.name
	}
}

// setHook gives a hook field a non-nil value of its type.
func setHook(t *testing.T, name string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Func:
		f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value {
			panic("hook called")
		}))
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	case reflect.Interface:
		w := reflect.ValueOf(io.Discard)
		if !w.Type().Implements(f.Type()) {
			t.Fatalf("hook %s: no test value for interface %v", name, f.Type())
		}
		f.Set(w)
	}
}

// TestImageKeyMatchesCacheKey: a program keyed from its marshaled image and
// keyed as a program agree, and a second byte encoding of the same program
// (a version-2 image declaring no secret ranges, which Load accepts) keys
// apart from it.
func TestImageKeyMatchesCacheKey(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	want, _ := CacheKey(prog, "levioso", cfg, false, true)
	if got, ok := ImageKey(img, "levioso", cfg, false, true); !ok || got != want {
		t.Fatalf("ImageKey(MarshalBinary(p)) = %q, CacheKey(p) = %q", got, want)
	}

	v2 := append(append([]byte(nil), img...), 0, 0, 0, 0) // no secret ranges
	binary.LittleEndian.PutUint16(v2[6:], 2)
	again, err := Load("v2", v2)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := CacheKey(again, "levioso", cfg, false, true); k != want {
		t.Fatal("the version-2 encoding did not load to the same program")
	}
	if k, _ := ImageKey(v2, "levioso", cfg, false, true); k == want {
		t.Fatal("two byte encodings of one program share a key")
	}
}
