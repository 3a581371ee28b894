// Package journal is the repository's crash-safe persistence primitive,
// shared by the harness sweep journal and the fuzz campaign state file. It
// provides two disciplines:
//
//   - File: an append-only JSON-lines record. Each Append is a single write
//     followed by an fsync, so an interruption (crash, ^C, power loss) can
//     tear at most the final line and can lose at most the entry being
//     written — never previously recorded ones. Open replays every intact
//     line through a caller-supplied loader and heals a torn trailing line
//     so the next append starts clean instead of merging into garbage.
//
//   - WriteAtomic: whole-file replacement via temp file + fsync + rename,
//     so a reader sees either the old state or the complete new state,
//     never a torn file.
//
// Callers stay typed: harness.Journal (File) and the fuzz campaign state
// (WriteAtomic) own their schema and resume logic; this package owns only
// the durability mechanics.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// maxLine bounds a single journal line. Fuzz repro entries can carry whole
// program listings in their finding details, so the bound is generous.
const maxLine = 1 << 22

// File is an open append-only JSON-lines journal. Safe for concurrent use.
type File struct {
	mu sync.Mutex
	f  *os.File
	n  int // intact lines loaded + appended
}

// Open opens (creating if absent) the journal at path and replays every
// intact recorded line through load, in file order. Lines that do not parse
// as JSON objects — a torn tail from an interrupted write, or foreign text —
// are skipped rather than poisoning the resume; the caller's loader decides
// what each line means. A torn trailing line is healed with a newline so the
// next Append starts on a fresh line (otherwise the first post-crash entry
// would merge into the garbage and be lost on the following load).
func Open(path string, load func(line []byte)) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	j := &File{f: f}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			continue // torn or foreign line: skipped, the caller re-runs it
		}
		j.n++
		load(sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("journal: heal tail: %w", err)
			}
		}
	}
	return j, nil
}

// Append marshals v as one JSON line, writes it, and fsyncs before
// returning. The write is a single syscall, so an interruption tears at
// most this line; the fsync means a completed Append survives power loss.
func (j *File) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.n++
	return nil
}

// Len returns the number of intact lines loaded at Open plus lines appended
// since.
func (j *File) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Sync flushes to stable storage. Append already fsyncs per record; Sync is
// for callers that want an explicit durability point.
func (j *File) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *File) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// WriteAtomic replaces the file at path with data crash-safely: the bytes
// land in a temp file in the same directory, are fsynced, and are renamed
// over path. A crash at any point leaves either the previous file or the
// complete new one, never a torn mix.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
