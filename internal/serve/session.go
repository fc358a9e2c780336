// Session-scoped catalogs and the idempotent replay cache. A session
// is named by the client (HeaderSession) and created on first use; it
// tracks the catalog objects the session's DDL created (SELECT INTO
// datasets, CREATE JOIN definitions) so an expired session's objects
// are swept from the shared catalog, and it records completed query
// responses keyed by client query ID so a retry whose original
// response was lost replays bytes instead of executing twice. Only
// settled outcomes are recorded — successes and non-retryable errors;
// a retryable failure is forgotten (forget) so the retry that the
// error itself invites re-executes instead of replaying the failure.
package serve

import (
	"sort"
	"sync"
	"time"
)

// DefaultSessionIdle is how long a session may sit idle before the
// janitor expires it.
const DefaultSessionIdle = 15 * time.Minute

// DefaultReplayCap bounds the completed-response records one session
// retains for idempotent replay. Oldest finished records are evicted
// first; a retry arriving after eviction re-executes (safe for SELECT,
// and the horizon is deliberately much longer than any sane retry
// policy). Records still in flight are never evicted — dropping one
// would let a concurrent retry execute the same query ID twice.
const DefaultReplayCap = 256

// DefaultReplayBytes bounds the recorded response bytes one session
// retains for replay, so a handful of large result sets cannot pin
// memory for the whole idle window. Oldest finished records are
// evicted first when the budget is exceeded.
const DefaultReplayBytes = 16 << 20

// queryRecord is one query ID's lifecycle under a session: created at
// first arrival, closed (done) when the response bytes are recorded.
// A retry for the same ID waits on done and replays frames.
type queryRecord struct {
	done   chan struct{}
	frames []byte // the full recorded response stream
	execs  int    // times the query actually executed (must stay 1)
}

// session is one client session.
type session struct {
	id       string
	lastUsed time.Time

	datasets []string // SELECT INTO datasets this session created
	joins    []string // CREATE JOIN definitions this session created

	replay      map[string]*queryRecord
	order       []string // replay insertion order, for eviction
	replayBytes int64    // recorded frame bytes across finished records
	hits        int64    // replays served from this session's records
	evictions   int64    // finished records evicted by cap or budget
}

// sessions is the registry. All methods are safe for concurrent use.
type sessions struct {
	mu        sync.Mutex
	byID      map[string]*session
	idle      time.Duration
	replayCap int
	bytesCap  int64
	// Aggregate replay counters survive session expiry, so /metrics
	// totals do not shrink when the janitor sweeps.
	totalHits      int64
	totalEvictions int64
}

func newSessions(idle time.Duration, replayCap int, bytesCap int64) *sessions {
	if idle <= 0 {
		idle = DefaultSessionIdle
	}
	if bytesCap <= 0 {
		bytesCap = DefaultReplayBytes
	}
	return &sessions{byID: make(map[string]*session), idle: idle, replayCap: replayCap, bytesCap: bytesCap}
}

// touch returns the named session, creating it if needed, and stamps
// its last-used time.
func (ss *sessions) touch(id string, now time.Time) *session {
	if id == "" {
		id = "default"
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s := ss.byID[id]
	if s == nil {
		s = &session{id: id, replay: make(map[string]*queryRecord)}
		ss.byID[id] = s
	}
	s.lastUsed = now
	return s
}

// count reports the live session count.
func (ss *sessions) count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.byID)
}

// beginQuery claims a query ID under a session. The first caller gets
// (record, true) and must execute the query, then finish() the record;
// later callers get (record, false) and must wait on record.done, then
// replay record.frames. An empty ID disables idempotency: the caller
// gets a fresh untracked record.
func (ss *sessions) beginQuery(s *session, queryID string) (*queryRecord, bool) {
	if queryID == "" {
		return &queryRecord{done: make(chan struct{})}, true
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if rec, ok := s.replay[queryID]; ok {
		s.hits++
		ss.totalHits++
		return rec, false
	}
	rec := &queryRecord{done: make(chan struct{})}
	s.replay[queryID] = rec
	s.order = append(s.order, queryID)
	ss.totalEvictions += s.evictLocked(ss.replayCap, ss.bytesCap)
	return rec, true
}

// evictLocked drops oldest *finished* records until the session holds
// at most maxRecords replay records and at most maxBytes recorded
// frame bytes, returning the number evicted. In-flight records (done
// not yet closed) are never evicted — dropping one would let a retry
// arriving after the eviction execute concurrently with the original,
// breaking the exactly-once invariant — so the caps can be transiently
// exceeded while queries are in flight. Callers hold ss.mu.
func (s *session) evictLocked(maxRecords int, maxBytes int64) int64 {
	i, evicted := 0, int64(0)
	for (len(s.order) > maxRecords || s.replayBytes > maxBytes) && i < len(s.order) {
		rec := s.replay[s.order[i]]
		select {
		case <-rec.done:
		default:
			i++ // in flight: skip, try the next-oldest
			continue
		}
		delete(s.replay, s.order[i])
		s.replayBytes -= int64(len(rec.frames))
		s.order = append(s.order[:i], s.order[i+1:]...)
		evicted++
	}
	s.evictions += evicted
	return evicted
}

// finish publishes a record's response bytes and wakes replayers.
func (rec *queryRecord) finish(frames []byte) {
	rec.frames = frames
	close(rec.done)
}

// finishQuery publishes a tracked record's response bytes, charges the
// session's replay byte budget, and evicts oldest finished records if
// the budget is now exceeded. An empty queryID (untracked record)
// degenerates to a plain finish.
func (ss *sessions) finishQuery(s *session, queryID string, rec *queryRecord, frames []byte) {
	rec.frames = frames
	if queryID != "" {
		ss.mu.Lock()
		// Charge only records still tracked: a session expiry may have
		// orphaned s, in which case the bytes die with it anyway.
		if s.replay[queryID] == rec {
			s.replayBytes += int64(len(frames))
		}
		ss.mu.Unlock()
	}
	close(rec.done)
	if queryID != "" {
		ss.mu.Lock()
		ss.totalEvictions += s.evictLocked(ss.replayCap, ss.bytesCap)
		ss.mu.Unlock()
	}
}

// forget drops a query's replay record, so the next arrival of the
// same ID executes afresh instead of replaying. The server calls this
// before finishing a record whose outcome was a *retryable* error:
// caching a transient refusal would hand every retry the same failure
// and the query could never succeed against this server. The rec guard
// makes the call a no-op if the ID was already forgotten and re-begun.
func (ss *sessions) forget(s *session, queryID string, rec *queryRecord) {
	if queryID == "" {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if s.replay[queryID] != rec {
		return
	}
	delete(s.replay, queryID)
	for i, id := range s.order {
		if id == queryID {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// execCount reports how many times a query ID actually executed, as a
// pure read: unknown sessions or IDs report 0 and nothing is created
// or touched.
func (ss *sessions) execCount(id, queryID string) int {
	if id == "" {
		id = "default"
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s := ss.byID[id]
	if s == nil {
		return 0
	}
	rec := s.replay[queryID]
	if rec == nil {
		return 0
	}
	return rec.execs
}

// execCounts reports every tracked query ID's execution count under a
// session, as a pure read (unknown session reports nil).
func (ss *sessions) execCounts(id string) map[string]int {
	if id == "" {
		id = "default"
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s := ss.byID[id]
	if s == nil {
		return nil
	}
	out := make(map[string]int, len(s.replay))
	for qid, rec := range s.replay {
		out[qid] = rec.execs
	}
	return out
}

// trackDataset/trackJoin note catalog objects the session created, so
// expiry can drop them.
func (ss *sessions) trackDataset(s *session, name string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s.datasets = append(s.datasets, name)
}

func (ss *sessions) trackJoin(s *session, name string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s.joins = append(s.joins, name)
}

// untrackJoin removes a dropped join from every session's tracking (a
// DROP JOIN may come from a different session than the CREATE).
func (ss *sessions) untrackJoin(name string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.byID {
		for i, j := range s.joins {
			if j == name {
				s.joins = append(s.joins[:i], s.joins[i+1:]...)
				break
			}
		}
	}
}

// expired removes and returns every session idle past the deadline, in
// deterministic (sorted) order so sweep side effects replay stably. A
// session holding any in-flight replay record is never expired — the
// mirror of the eviction rule: dropping the session would orphan the
// record, so a retry arriving mid-execution would re-execute the query
// concurrently with the original. Such a session is retried on the
// next sweep, by which point the query has settled.
func (ss *sessions) expired(now time.Time) []*session {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var ids []string
	for id, s := range ss.byID {
		if now.Sub(s.lastUsed) >= ss.idle && !s.inFlightLocked() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]*session, 0, len(ids))
	for _, id := range ids {
		out = append(out, ss.byID[id])
		delete(ss.byID, id)
	}
	return out
}

// inFlightLocked reports whether any replay record is still executing.
// Callers hold ss.mu.
func (s *session) inFlightLocked() bool {
	for _, rec := range s.replay {
		select {
		case <-rec.done:
		default:
			return true
		}
	}
	return false
}

// ReplaySessionStats is one session's replay-cache footprint in a
// metrics snapshot.
type ReplaySessionStats struct {
	Session   string `json:"session"`
	Records   int    `json:"records"`
	Bytes     int64  `json:"bytes"`
	Hits      int64  `json:"hits"`
	Evictions int64  `json:"evictions"`
}

// ReplayStats is the replay cache's aggregate view for /metrics: live
// totals plus the configured budgets they are charged against, and
// lifetime hit/eviction counters that survive session expiry.
type ReplayStats struct {
	Records     int                  `json:"records"`
	Bytes       int64                `json:"bytes"`
	BytesBudget int64                `json:"bytes_budget"`
	RecordCap   int                  `json:"record_cap"`
	Hits        int64                `json:"hits"`
	Evictions   int64                `json:"evictions"`
	Sessions    []ReplaySessionStats `json:"sessions,omitempty"`
}

// replayStats snapshots the replay cache across all live sessions,
// per-session entries sorted by session ID for stable output.
func (ss *sessions) replayStats() ReplayStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := ReplayStats{
		BytesBudget: ss.bytesCap,
		RecordCap:   ss.replayCap,
		Hits:        ss.totalHits,
		Evictions:   ss.totalEvictions,
	}
	for _, s := range ss.byID {
		st.Records += len(s.replay)
		st.Bytes += s.replayBytes
		st.Sessions = append(st.Sessions, ReplaySessionStats{
			Session:   s.id,
			Records:   len(s.replay),
			Bytes:     s.replayBytes,
			Hits:      s.hits,
			Evictions: s.evictions,
		})
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].Session < st.Sessions[j].Session })
	return st
}
