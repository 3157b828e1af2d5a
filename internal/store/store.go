// Package store is the persistent disk tier under the service's cell
// cache: a content-addressed store mapping a cell fingerprint
// ("sha256:<hex>") to its result payload, laid out as
//
//	<dir>/cells/<hex[0:2]>/<hex>.cell   one envelope per cell
//	<dir>/quarantine/<hex>.cell         entries that failed validation
//	<dir>/tmp/                          in-flight writes (cleared on Open)
//
// plus a compact in-memory index (the key set, rebuilt by a directory
// scan on Open) so a miss never touches the disk. Writes are atomic —
// payloads land in tmp/ and are renamed into place — so a crash mid-write
// leaves either the old entry or none, never a torn file. Every entry is
// wrapped in a binary envelope carrying its key, payload length and
// CRC-32; reads validate all three by slicing the file and move anything
// that fails into quarantine rather than serving it (or deleting the
// evidence), so one corrupt file costs one re-simulation, not an outage.
//
// The store holds opaque payload bytes: the service layer encodes cell
// results before Put and decodes after Get, which keeps this package free
// of simulation types and reusable for any content-addressed blob (the
// fingerprint → metrics mapping is exactly the audit-log triangle: content
// hash as the key, cheap index, bulk store). Files with any other name —
// among them the <hex>.json entries of the earlier JSON envelope — are
// not indexed, so they are never served or quarantined: their cells miss
// once and are rewritten in the current format.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Prefix is the accepted key prefix; keys are scenario cell fingerprints.
const Prefix = "sha256:"

// Sentinel errors. Get wraps details around them; test with errors.Is.
var (
	// ErrNotFound: the key has no entry.
	ErrNotFound = errors.New("store: not found")
	// ErrCorrupt: the entry failed validation and was quarantined.
	ErrCorrupt = errors.New("store: corrupt entry quarantined")
	// ErrClosed: the store was closed.
	ErrClosed = errors.New("store: closed")
)

// The envelope is the on-disk frame around one payload, all integers
// little-endian:
//
//	magic   4 bytes  "RCEL"
//	version 1 byte   envelopeV
//	keyLen  uint32   then keyLen bytes of key
//	payLen  uint32
//	crc     uint32   CRC-32 (IEEE) of the payload
//	payload payLen bytes, ending the file
//
// The key ties the file's content to its address, so a misfiled entry can
// never be served; the length and CRC are validated against the payload
// bytes on every read.
const (
	envelopeMagic = "RCEL"
	// envelopeV 1 was the JSON envelope of the <hex>.json entries.
	envelopeV = 2
	cellExt   = ".cell"
)

// encodeEnvelope frames payload under key.
func encodeEnvelope(key string, payload []byte) []byte {
	b := make([]byte, 0, len(envelopeMagic)+1+4+len(key)+4+4+len(payload))
	b = append(b, envelopeMagic...)
	b = append(b, envelopeV)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// decodeEnvelope validates an entry read for key and returns its payload,
// a subslice of data; the error says which check failed.
func decodeEnvelope(key string, data []byte) ([]byte, error) {
	const head = len(envelopeMagic) + 1 + 4
	if len(data) < head || string(data[:len(envelopeMagic)]) != envelopeMagic {
		return nil, errors.New("not a cell envelope")
	}
	if v := data[len(envelopeMagic)]; v != envelopeV {
		return nil, fmt.Errorf("envelope version %d, want %d", v, envelopeV)
	}
	rest := data[head:]
	keyLen := binary.LittleEndian.Uint32(data[head-4 : head])
	if uint64(keyLen)+8 > uint64(len(rest)) {
		return nil, errors.New("truncated envelope")
	}
	if got := rest[:keyLen]; string(got) != key {
		return nil, fmt.Errorf("entry is keyed %q", got)
	}
	rest = rest[keyLen:]
	payLen := binary.LittleEndian.Uint32(rest)
	crc := binary.LittleEndian.Uint32(rest[4:])
	payload := rest[8:]
	if uint64(payLen) != uint64(len(payload)) {
		return nil, fmt.Errorf("payload length %d, envelope says %d", len(payload), payLen)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errors.New("payload CRC mismatch")
	}
	return payload, nil
}

// Store is a content-addressed on-disk payload store. Safe for concurrent
// use; create with Open.
type Store struct {
	dir string

	mu          sync.Mutex
	index       map[string]struct{}
	quarantined uint64
	closed      bool
}

// Open creates (or reopens) a store rooted at dir, building the index
// from the entries already on disk and clearing stale in-flight writes.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{cellsDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: opening %s: %w", dir, err)
		}
	}
	// A crash can strand tmp files; they are garbage by construction
	// (their rename never happened).
	stale, _ := filepath.Glob(filepath.Join(dir, tmpDir, "*"))
	for _, f := range stale {
		os.Remove(f)
	}
	s := &Store{dir: dir, index: map[string]struct{}{}}
	shards, err := os.ReadDir(filepath.Join(dir, cellsDir))
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, cellsDir, shard.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
		}
		for _, e := range entries {
			hex, ok := strings.CutSuffix(e.Name(), cellExt)
			if !ok || e.IsDir() || !validHex(hex) || !strings.HasPrefix(hex, shard.Name()) {
				continue // not ours; leave it alone
			}
			s.index[Prefix+hex] = struct{}{}
		}
	}
	return s, nil
}

const (
	cellsDir      = "cells"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
)

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Quarantined returns how many corrupt entries this store has quarantined
// since Open.
func (s *Store) Quarantined() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Close marks the store closed; subsequent calls fail with ErrClosed.
// Writes are atomic and synchronous, so there is nothing to flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// validHex reports whether hex looks like a lowercase hex digest usable as
// a file name (the shard prefix needs at least two characters).
func validHex(hex string) bool {
	if len(hex) < 8 {
		return false
	}
	for _, c := range hex {
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'f' {
			continue
		}
		return false
	}
	return true
}

// path resolves a key to its entry path, validating the key shape.
func (s *Store) path(key string) (string, string, error) {
	hex, ok := strings.CutPrefix(key, Prefix)
	if !ok || !validHex(hex) {
		return "", "", fmt.Errorf("store: key %q: want %s<lowercase hex>", key, Prefix)
	}
	return filepath.Join(s.dir, cellsDir, hex[:2], hex+cellExt), hex, nil
}

// Put stores payload under key, atomically replacing any existing entry.
func (s *Store) Put(key string, payload []byte) error {
	path, hex, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("store: encoding %s: payload of %d bytes exceeds the envelope's 4 GiB", key, len(payload))
	}
	data := encodeEnvelope(key, payload)
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), hex+"-*")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	s.mu.Lock()
	s.index[key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Get returns the payload stored under key. A missing entry returns
// ErrNotFound; an entry that fails envelope, key, length or CRC validation
// is moved into quarantine/ and reported as ErrCorrupt (a later Get of the
// same key is then a plain miss).
func (s *Store) Get(key string) ([]byte, error) {
	path, hex, err := s.path(key)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := s.index[key]; !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Deleted underfoot (concurrent Delete); treat as a miss.
			s.drop(key)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: reading %s: %w", key, err)
	}
	payload, derr := decodeEnvelope(key, data)
	if derr != nil {
		return nil, s.quarantine(key, hex, path, derr.Error())
	}
	return payload, nil
}

// Has reports whether key is indexed (without touching the disk).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Delete removes the entry stored under key, if any.
func (s *Store) Delete(key string) error {
	path, _, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	delete(s.index, key)
	s.mu.Unlock()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting %s: %w", key, err)
	}
	return nil
}

// drop forgets an index entry.
func (s *Store) drop(key string) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}

// quarantine moves a failed entry aside — preserving the evidence — and
// drops it from the index, returning the ErrCorrupt to surface.
func (s *Store) quarantine(key, hex, path, detail string) error {
	s.mu.Lock()
	if _, ok := s.index[key]; ok {
		delete(s.index, key)
		s.quarantined++
		if err := os.Rename(path, filepath.Join(s.dir, quarantineDir, hex+cellExt)); err != nil {
			// Removal is second-best: never leave a corrupt entry servable.
			os.Remove(path)
		}
	}
	s.mu.Unlock()
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, key, detail)
}
