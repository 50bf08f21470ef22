// Package planstore is the durable plan store: a versioned,
// content-addressed on-disk home for planner.Plan artifacts, so the
// expensive step of the adaptive mechanism — designing a strategy — is
// paid once per workload, not once per process lifetime. A server
// restart rehydrates its strategy cache from the store instead of
// triggering a recompute storm, and a plan designed offline (amdesign
// -save) can be shipped into a server's store directory.
//
// Layout. Each plan is one file named by the SHA-256 of its cache key
// (<hex[:24]>.plan): the key — the canonical (workload spec, hints
// fingerprint) pair the server's strategy cache uses — addresses the
// content, so re-persisting the same design overwrites its own entry and
// two servers sharing a directory converge on one file per workload.
// Writes go through a temp file and an atomic rename: a crash mid-write
// leaves the previous entry intact, never a torn file. Plans are all the
// store holds: the planner keeps no state beyond its generator registry.
//
// Envelope. Every file is framed as
//
//	magic | format version | library version | meta | payload | SHA-256
//
// and every plan decode verifies the checksum first. Entries whose
// magic, format version or checksum do not match are *skipped with a
// logged reason* (LoadAll) or refused (Load) — an incompatible or
// corrupt plan is never mis-loaded into a serving cache. (List parses
// only the meta header, without hashing payloads.) The library version
// is advisory: it is reported in listings so operators can see which
// build wrote an entry, but a matching format version is what gates
// decoding.
package planstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptivemm/internal/binenc"
	"adaptivemm/internal/planner"
)

const (
	// planMagic frames plan entries.
	planMagic = "AMPS"

	// FormatVersion is the store wire-format version. Entries written
	// under a different version are skipped, never decoded: bump it on
	// any incompatible codec change. Version 2 dropped the Gram matrix
	// that normal-CG plans persisted; version 3 dropped the byte that
	// flagged a separate dense form of the strategy.
	FormatVersion = 3

	// LibraryVersion tags entries with the build that wrote them. It is
	// recorded and reported, not matched — the format version is the
	// compatibility gate.
	LibraryVersion = "adaptivemm/0.5"

	// planExt is the plan-entry file suffix.
	planExt = ".plan"

	// maxEntryBytes bounds how large a plan file the store will read back
	// (the biggest legitimate artifact, a 1024-cell dense pseudo-inverse
	// plus strategy, is ~25 MB).
	maxEntryBytes = 256 << 20
)

// maxEvictedRecords bounds the evicted-id memory; past it, the oldest
// records are forgotten (their IDs then report a plain not-found).
const maxEvictedRecords = 4096

// Meta describes one stored plan without decoding its operators.
type Meta struct {
	// ID is the entry's content address (hex SHA-256 prefix of the key)
	// — the handle DELETE /plans/{id} takes.
	ID string `json:"id"`
	// Key is the canonical (workload spec, hints fingerprint) cache key.
	Key string `json:"key"`
	// Generator names the plan's winning generator.
	Generator string `json:"generator"`
	// Workload is the planned workload's name.
	Workload string `json:"workload"`
	// Queries and Cells are the workload dimensions.
	Queries int `json:"queries"`
	Cells   int `json:"cells"`
	// Shards is the shard count of a sharded plan, 0 otherwise.
	Shards int `json:"shards,omitempty"`
	// SizeBytes is the entry's file size.
	SizeBytes int64 `json:"sizeBytes"`
	// SavedAt is when the entry was written.
	SavedAt time.Time `json:"savedAt"`
	// LibVersion is the library build that wrote the entry.
	LibVersion string `json:"libVersion"`
}

// EntryID returns the content address a key maps to.
func EntryID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:12])
}

// CanonicalKey is the store (and server strategy-cache) key for a
// spec-described workload designed under a hint fingerprint. Keeping the
// construction here means amdesign -save writes entries a server with
// the same spec finds on startup.
func CanonicalKey(spec string, seed int64, fingerprint string) string {
	if seed == 0 {
		seed = 1
	}
	return fmt.Sprintf("%s|seed=%d|%s", strings.ToLower(strings.TrimSpace(spec)), seed, fingerprint)
}

// Store is a plan store rooted at one directory. It is safe for
// concurrent use; cross-process coordination relies on atomic renames
// (last writer wins per entry).
type Store struct {
	dir string
	mu  sync.Mutex

	// Quota state (SetQuota): byte budget over plan entries (0 =
	// unlimited), last-served time per entry id, and the eviction logger.
	// Entries never Touched fall back to their file mtime, so a fresh
	// process still evicts oldest-first.
	quota  int64
	served map[string]time.Time
	logf   func(format string, args ...any)

	// evicted remembers quota evictions (bounded), so a reader racing
	// the GC — List saw the entry, the quota removed it, then the read
	// lands — can be told the entry was evicted rather than left to
	// treat the miss as store corruption. Re-persisting an entry clears
	// its record.
	evicted      map[string]time.Time
	evictedOrder []string
}

// Open ensures the directory exists and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("planstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put persists a plan under its cache key, overwriting any previous
// entry for the same key. With a quota installed (SetQuota), the write
// counts as serving the entry and may evict older entries to make room.
func (s *Store) Put(key string, plan *planner.Plan) (Meta, error) {
	blob, meta, err := EncodeEntry(key, plan, time.Now())
	if err != nil {
		return Meta{}, err
	}
	path := filepath.Join(s.dir, meta.ID+planExt)
	if err := s.writeAtomic(path, blob); err != nil {
		return Meta{}, err
	}
	meta.SizeBytes = int64(len(blob))
	s.clearEvicted(meta.ID)
	s.Touch(meta.ID)
	s.enforceQuota()
	return meta, nil
}

// SetQuota installs a byte budget over the store's plan entries and
// enforces it immediately; 0 disables the quota. While a quota is set,
// every Put that pushes the entries' total size past the budget evicts
// least-recently-served entries (most recent of Touch time and file
// mtime) until the store fits again. logf, when non-nil, receives one
// line per eviction.
func (s *Store) SetQuota(quota int64, logf func(format string, args ...any)) {
	s.mu.Lock()
	s.quota = quota
	s.logf = logf
	s.mu.Unlock()
	s.enforceQuota()
}

// Touch records that an entry was just served — a design cache hit, a
// rehydration, or its own Put — moving it to the recently-served end of
// the quota eviction order.
func (s *Store) Touch(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.served == nil {
		s.served = map[string]time.Time{}
	}
	s.served[id] = time.Now()
}

// enforceQuota deletes least-recently-served plan entries until the
// store's total plan bytes fit the quota. Directory-scan or removal
// failures are logged and skipped — quota enforcement is advisory
// housekeeping, never a reason to fail a Put.
func (s *Store) enforceQuota() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quota <= 0 {
		return
	}
	logf := s.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		logf("planstore: quota scan: %v", err)
		return
	}
	type cand struct {
		id   string
		size int64
		last time.Time
	}
	var cands []cand
	var total int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, planExt) {
			continue
		}
		id := strings.TrimSuffix(name, planExt)
		if !validID(id) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		last := fi.ModTime()
		if t, ok := s.served[id]; ok && t.After(last) {
			last = t
		}
		total += fi.Size()
		cands = append(cands, cand{id: id, size: fi.Size(), last: last})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].last.Before(cands[j].last) })
	for _, c := range cands {
		if total <= s.quota {
			break
		}
		if err := os.Remove(filepath.Join(s.dir, c.id+planExt)); err != nil {
			logf("planstore: quota eviction of %s: %v", c.id, err)
			continue
		}
		total -= c.size
		delete(s.served, c.id)
		s.recordEvicted(c.id)
		logf("planstore: quota eviction: removed %s (%d bytes, last served %s); plans exceeded the %d-byte quota",
			c.id, c.size, c.last.UTC().Format(time.RFC3339), s.quota)
	}
}

// recordEvicted remembers a quota eviction; caller holds s.mu.
func (s *Store) recordEvicted(id string) {
	if s.evicted == nil {
		s.evicted = map[string]time.Time{}
	}
	if _, ok := s.evicted[id]; !ok {
		s.evictedOrder = append(s.evictedOrder, id)
	}
	s.evicted[id] = time.Now()
	for len(s.evictedOrder) > maxEvictedRecords {
		delete(s.evicted, s.evictedOrder[0])
		s.evictedOrder = s.evictedOrder[1:]
	}
}

// clearEvicted drops an id's eviction record after it is re-persisted.
func (s *Store) clearEvicted(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.evicted[id]; !ok {
		return
	}
	delete(s.evicted, id)
	for i, e := range s.evictedOrder {
		if e == id {
			s.evictedOrder = append(s.evictedOrder[:i], s.evictedOrder[i+1:]...)
			break
		}
	}
}

// Evicted reports whether id was removed by quota enforcement, and
// when. It distinguishes "the quota GC took it" from "never existed"
// for readers that raced an eviction (List, then GET of a listed id).
func (s *Store) Evicted(id string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.evicted[id]
	return t, ok
}

// writeAtomic writes through a temp file and a rename so a crash cannot
// leave a torn entry.
func (s *Store) writeAtomic(path string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		return fmt.Errorf("planstore: writing %s: %v / %v%s",
			filepath.Base(path), werr, cerr, discardTemp(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("planstore: %w%s", err, discardTemp(tmp.Name()))
	}
	return nil
}

// discardTemp removes a failed write's temp file and renders the cleanup
// failure, if any, for attachment to the primary error — an orphaned
// temp file in the store directory should be visible, not silent.
func discardTemp(name string) string {
	if err := os.Remove(name); err != nil {
		return fmt.Sprintf(" (orphaned temp file: %v)", err)
	}
	return ""
}

// Load reads and decodes one entry by ID.
func (s *Store) Load(id string) (*planner.Plan, Meta, error) {
	if !validID(id) {
		return nil, Meta{}, fmt.Errorf("planstore: invalid entry id %q", id)
	}
	path := filepath.Join(s.dir, id+planExt)
	blob, err := readBounded(path)
	if err != nil {
		return nil, Meta{}, err
	}
	plan, meta, err := DecodeEntry(blob)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("planstore: %s: %w", filepath.Base(path), err)
	}
	meta.SizeBytes = int64(len(blob))
	return plan, meta, nil
}

// Stat returns one entry's metadata without reading its payload. A
// missing entry's error unwraps to os.ErrNotExist.
func (s *Store) Stat(id string) (Meta, error) {
	if !validID(id) {
		return Meta{}, fmt.Errorf("planstore: invalid entry id %q", id)
	}
	return readMetaHeader(filepath.Join(s.dir, id+planExt))
}

// Delete removes one entry by ID. Deleting an absent entry errors.
func (s *Store) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("planstore: invalid entry id %q", id)
	}
	if err := os.Remove(filepath.Join(s.dir, id+planExt)); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	return nil
}

// List returns the metadata of every readable entry, sorted by key. It
// parses only each file's meta header (the payload and checksum are not
// read), so listing a store full of multi-megabyte plans stays cheap;
// integrity is verified where plans are actually decoded (Load/LoadAll).
// Entries whose header cannot be parsed are silently omitted — LoadAll
// is the path that reports skip reasons.
func (s *Store) List() ([]Meta, error) {
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	metas := make([]Meta, 0, len(ids))
	for _, id := range ids {
		meta, err := readMetaHeader(filepath.Join(s.dir, id+planExt))
		if err != nil {
			continue
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Key < metas[j].Key })
	return metas, nil
}

// metaHeaderPrefix bounds how much of an entry readMetaHeader reads: the
// meta header (version, key and name strings, counts) sits at the front
// of the file and is far smaller than this.
const metaHeaderPrefix = 64 << 10

// readMetaHeader parses an entry's meta header from a bounded prefix of
// the file, without reading the payload or verifying the checksum.
func readMetaHeader(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, fmt.Errorf("planstore: %w", err)
	}
	defer f.Close()
	buf := make([]byte, metaHeaderPrefix)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return Meta{}, fmt.Errorf("planstore: %w", err)
	}
	prefix := buf[:n]
	if len(prefix) < len(planMagic) || string(prefix[:len(planMagic)]) != planMagic {
		return Meta{}, fmt.Errorf("planstore: %s is not a plan entry", filepath.Base(path))
	}
	meta, err := parseMeta(binenc.NewReader(prefix[len(planMagic):]))
	if err != nil {
		return Meta{}, fmt.Errorf("planstore: %s: %w", filepath.Base(path), err)
	}
	fi, err := f.Stat()
	if err != nil {
		return Meta{}, fmt.Errorf("planstore: %w", err)
	}
	meta.SizeBytes = fi.Size()
	return meta, nil
}

// Loaded is one successfully rehydrated entry.
type Loaded struct {
	Meta Meta
	Plan *planner.Plan
}

// LoadAll decodes every entry in the store, skipping (and reporting via
// logf, when non-nil) entries that are corrupt, truncated or written
// under an incompatible format version. The error return is reserved for
// directory-level failures; per-entry problems only skip that entry.
func (s *Store) LoadAll(logf func(format string, args ...any)) ([]Loaded, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	out := make([]Loaded, 0, len(ids))
	for _, id := range ids {
		path := filepath.Join(s.dir, id+planExt)
		blob, err := readBounded(path)
		if err != nil {
			logf("planstore: skipping %s: %v", filepath.Base(path), err)
			continue
		}
		plan, meta, err := DecodeEntry(blob)
		if err != nil {
			logf("planstore: skipping %s: %v", filepath.Base(path), err)
			continue
		}
		meta.SizeBytes = int64(len(blob))
		out = append(out, Loaded{Meta: meta, Plan: plan})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.Key < out[j].Meta.Key })
	return out, nil
}

func (s *Store) ids() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, planExt) {
			continue
		}
		id := strings.TrimSuffix(name, planExt)
		if validID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// validID reports whether id has the shape of an entry content address
// (24 hex characters) — the gate every by-id lookup applies before
// touching the filesystem.
func validID(id string) bool {
	if len(id) != 24 {
		return false
	}
	_, err := hex.DecodeString(id)
	return err == nil
}

func readBounded(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	if fi.Size() > maxEntryBytes {
		return nil, fmt.Errorf("planstore: %s is %d bytes, past the %d-byte entry cap", filepath.Base(path), fi.Size(), maxEntryBytes)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	return blob, nil
}

// --- entry envelope ---

// EncodeEntry serializes a plan into a complete store entry (envelope +
// payload + checksum). It is exported for amdesign -save, which writes
// entries outside a Store directory.
func EncodeEntry(key string, plan *planner.Plan, savedAt time.Time) ([]byte, Meta, error) {
	if key == "" {
		return nil, Meta{}, fmt.Errorf("planstore: empty plan key")
	}
	var payload bytes.Buffer
	if err := encodePlan(&payload, plan, 0); err != nil {
		return nil, Meta{}, err
	}
	st := plan.State()
	meta := Meta{
		ID:         EntryID(key),
		Key:        key,
		Generator:  st.Generator,
		Workload:   st.Workload.Name(),
		Queries:    st.Workload.NumQueries(),
		Cells:      st.Workload.Cells(),
		Shards:     len(st.Shards),
		SavedAt:    savedAt.UTC().Truncate(time.Microsecond),
		LibVersion: LibraryVersion,
	}

	var out bytes.Buffer
	out.WriteString(planMagic)
	binenc.PutInt(&out, FormatVersion)
	binenc.PutString(&out, LibraryVersion)
	binenc.PutString(&out, key)
	binenc.PutU64(&out, uint64(meta.SavedAt.UnixMicro()))
	binenc.PutString(&out, meta.Generator)
	binenc.PutString(&out, meta.Workload)
	binenc.PutInt(&out, meta.Queries)
	binenc.PutInt(&out, meta.Cells)
	binenc.PutInt(&out, meta.Shards)
	binenc.PutBytes(&out, payload.Bytes())
	sum := sha256.Sum256(out.Bytes())
	out.Write(sum[:])
	return out.Bytes(), meta, nil
}

// DecodeEntry verifies and decodes a complete store entry.
func DecodeEntry(blob []byte) (*planner.Plan, Meta, error) {
	meta, payload, err := decodeEnvelope(blob)
	if err != nil {
		return nil, Meta{}, err
	}
	r := binenc.NewReader(payload)
	plan, err := readPlan(r, 0)
	if err != nil {
		return nil, Meta{}, err
	}
	if r.Remaining() != 0 {
		return nil, Meta{}, fmt.Errorf("%d trailing bytes after plan record", r.Remaining())
	}
	return plan, meta, nil
}

// decodeEnvelope verifies magic, format version and checksum and returns
// the meta header plus the (still encoded) plan payload.
func decodeEnvelope(blob []byte) (Meta, []byte, error) {
	if len(blob) < len(planMagic)+sha256.Size {
		return Meta{}, nil, fmt.Errorf("entry truncated (%d bytes)", len(blob))
	}
	if string(blob[:len(planMagic)]) != planMagic {
		return Meta{}, nil, fmt.Errorf("bad magic %q (not a plan entry)", blob[:len(planMagic)])
	}
	body, sum := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return Meta{}, nil, fmt.Errorf("checksum mismatch (corrupt or truncated entry)")
	}
	r := binenc.NewReader(body[len(planMagic):])
	meta, err := parseMeta(r)
	if err != nil {
		return Meta{}, nil, err
	}
	payload, err := r.Bytes()
	if err != nil {
		return Meta{}, nil, err
	}
	if r.Remaining() != 0 {
		return Meta{}, nil, fmt.Errorf("%d trailing bytes after payload", r.Remaining())
	}
	return meta, payload, nil
}

// parseMeta reads the meta header (everything between the magic and the
// plan payload): format version, library version, key, timestamp and the
// plan's descriptive fields.
func parseMeta(r *binenc.Reader) (Meta, error) {
	version, err := r.Uvarint()
	if err != nil {
		return Meta{}, err
	}
	if version != FormatVersion {
		return Meta{}, fmt.Errorf("format version %d, this build reads %d", version, FormatVersion)
	}
	var meta Meta
	if meta.LibVersion, err = r.String(); err != nil {
		return Meta{}, err
	}
	if meta.Key, err = r.String(); err != nil {
		return Meta{}, err
	}
	us, err := r.U64()
	if err != nil {
		return Meta{}, err
	}
	meta.SavedAt = time.UnixMicro(int64(us)).UTC()
	if meta.Generator, err = r.String(); err != nil {
		return Meta{}, err
	}
	if meta.Workload, err = r.String(); err != nil {
		return Meta{}, err
	}
	if meta.Queries, err = r.IntBounded(1<<40, "query count"); err != nil {
		return Meta{}, err
	}
	if meta.Cells, err = r.IntBounded(1<<40, "cell count"); err != nil {
		return Meta{}, err
	}
	if meta.Shards, err = r.IntBounded(1<<20, "shard count"); err != nil {
		return Meta{}, err
	}
	meta.ID = EntryID(meta.Key)
	return meta, nil
}
