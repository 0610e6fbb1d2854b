package store

import (
	"sync"

	"repro/internal/ids"
)

// MemStore is the in-memory backend: the Store contract without the
// disk, for tests such as the restart leg of TestChaosUnderLoad (where
// the "durability" under test is the runtime's restore path, not the
// filesystem). Payloads are copied on both sides, so a caller can never
// alias the stored bytes.
type MemStore struct {
	mu     sync.Mutex
	m      map[ids.ActivityID][]byte
	closed bool
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[ids.ActivityID][]byte)}
}

// Put implements Store.
func (s *MemStore) Put(id ids.ActivityID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.m[id] = append([]byte(nil), payload...)
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(id ids.ActivityID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	delete(s.m, id)
	return nil
}

// Load implements Store.
func (s *MemStore) Load() (map[ids.ActivityID][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make(map[ids.ActivityID][]byte, len(s.m))
	for id, payload := range s.m {
		out[id] = append([]byte(nil), payload...)
	}
	return out, nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Len returns the number of stored checkpoints (test helper).
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
