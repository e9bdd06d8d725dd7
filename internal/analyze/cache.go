package analyze

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// cacheSchemaVersion invalidates every cached result when the cache
// entry FORMAT changes (new fields, different serialization). Analyzer
// semantics are covered separately by AnalyzerVersion, which needs no
// manual bump.
const cacheSchemaVersion = "lvlint-cache-v3"

// AnalyzerVersion fingerprints the analyzer implementation actually
// running: the hash of the lvlint executable itself. Editing any check
// produces a different binary and therefore a different cache key, so
// stale results can never survive an analyzer change — the schema
// constant above only has to move when the on-disk format does. The
// hash is computed once per process. If the executable cannot be read
// (unusual embedded setups), a fixed fallback string keeps caching
// functional and the schema version alone guards invalidation.
func AnalyzerVersion() string {
	analyzerVersionOnce.Do(func() {
		analyzerVersion = "unhashed-binary"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		analyzerVersion = hex.EncodeToString(h.Sum(nil))
	})
	return analyzerVersion
}

var (
	analyzerVersionOnce sync.Once
	analyzerVersion     string
)

// Cache is the content-addressed lvlint result store under
// <root>/.lvlint-cache/. The key hashes the cache schema version, the
// analyzer-implementation fingerprint, the analyzer selection, go.sum
// (when present) and every non-test Go file the loader would see, so a
// warm run is exact: same inputs, same analyzers, same diagnostics, no
// parsing or type checking. Suggested fixes are not
// cached (their positions die with the FileSet); -fix always runs
// cold.
type Cache struct {
	dir string
}

// OpenCache returns the cache rooted at the module directory.
func OpenCache(moduleRoot string) *Cache {
	return &Cache{dir: filepath.Join(moduleRoot, ".lvlint-cache")}
}

// Key computes the content hash for a run over the module at root with
// the given analyzer names. analyzerVersion fingerprints the analyzer
// implementation (see AnalyzerVersion); any change to a check yields a
// fresh key, so edited analyzers re-analyze instead of replaying stale
// results.
func (c *Cache) Key(root string, analyzers []string, analyzerVersion string) (string, error) {
	h := sha256.New()
	_, _ = io.WriteString(h, cacheSchemaVersion+"\n")
	_, _ = io.WriteString(h, analyzerVersion+"\n")
	_, _ = io.WriteString(h, strings.Join(analyzers, ",")+"\n")
	// go.sum pins dependency sources; absent (stdlib-only module) is a
	// valid state and hashes as such.
	if data, err := os.ReadFile(filepath.Join(root, "go.sum")); err == nil {
		_, _ = h.Write(data)
	}
	_, _ = io.WriteString(h, "\x00")
	files, err := cacheInputs(root)
	if err != nil {
		return "", err
	}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheInputs lists the files that determine analysis results: every
// .go file the loader would parse (non-test, outside the directories
// skipTreeDir skips) plus go.mod, as sorted relative paths.
func cacheInputs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if skipTreeDir(root, path, name) {
				return filepath.SkipDir
			}
			return nil
		}
		if name == "go.mod" || strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// cachedDiag is the serialized form of a Diagnostic; positions are kept
// whole (token.Position marshals cleanly) with filenames relative to
// the module root so the cache survives a checkout move.
type cachedDiag struct {
	Check    string `json:"check"`
	Filename string `json:"filename"`
	Offset   int    `json:"offset"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// cacheEntry is the on-disk envelope. Schema and Analyzer restate two
// of the key's ingredients in readable form so GC can tell a stale
// entry (old binary, old format) from one that merely belongs to a
// different source state.
type cacheEntry struct {
	Schema   string       `json:"schema"`
	Analyzer string       `json:"analyzer"`
	Diags    []cachedDiag `json:"diags"`
}

// Get loads the cached diagnostics for key; ok is false on any miss or
// decode problem (a corrupt entry is just a miss).
func (c *Cache) Get(root, key string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var entry cacheEntry
	if err := json.Unmarshal(data, &entry); err != nil || entry.Schema != cacheSchemaVersion {
		return nil, false
	}
	diags := make([]Diagnostic, 0, len(entry.Diags))
	for _, cd := range entry.Diags {
		d := Diagnostic{Check: cd.Check, Message: cd.Message}
		d.Position.Filename = filepath.Join(root, filepath.FromSlash(cd.Filename))
		d.Position.Offset = cd.Offset
		d.Position.Line = cd.Line
		d.Position.Column = cd.Column
		diags = append(diags, d)
	}
	return diags, true
}

// Put stores the diagnostics for key and prunes old entries. Failures
// are returned but safe to ignore — the cache is an accelerator, not a
// correctness dependency.
func (c *Cache) Put(root, key, analyzerVersion string, diags []Diagnostic) error {
	cached := make([]cachedDiag, 0, len(diags))
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Position.Filename)
		if err != nil {
			rel = d.Position.Filename
		}
		cached = append(cached, cachedDiag{
			Check:    d.Check,
			Filename: filepath.ToSlash(rel),
			Offset:   d.Position.Offset,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(cacheEntry{Schema: cacheSchemaVersion, Analyzer: analyzerVersion, Diags: cached}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, key+".json")); err != nil {
		return err
	}
	c.prune(32)
	return nil
}

// GC removes entries that can never be hit again by the running
// binary: entries written under a different cache schema or a
// different analyzer fingerprint (both are key ingredients, so such an
// entry's key is unreachable now), plus orphaned .tmp files from
// interrupted writes. Entries for other source states under the
// current binary survive — switching branches back should stay warm.
// Runs at CLI startup; failures are silent (the cache is best-effort).
func (c *Cache) GC(analyzerVersion string) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(c.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var entry cacheEntry
		if err := json.Unmarshal(data, &entry); err != nil ||
			entry.Schema != cacheSchemaVersion || entry.Analyzer != analyzerVersion {
			_ = os.Remove(path)
		}
	}
}

// prune keeps the most recently modified keep entries.
func (c *Cache) prune(keep int) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type entry struct {
		name string
		mod  int64
	}
	var entries []entry
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{e.Name(), info.ModTime().UnixNano()})
	}
	if len(entries) <= keep {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mod != entries[j].mod {
			return entries[i].mod > entries[j].mod
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries[keep:] {
		_ = os.Remove(filepath.Join(c.dir, e.name))
	}
}
