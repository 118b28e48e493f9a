// Package watchdog is the server-health service of deTector's control
// plane (paper §5.1, §6.1): agents heartbeat it, and the diagnoser asks it
// which servers are unhealthy so their loss reports can be discarded as
// outliers (a rebooting pinger looks exactly like a black-holed rack).
package watchdog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/topo"
)

// Service tracks heartbeats with a liveness TTL.
type Service struct {
	ttl   time.Duration
	clock func() time.Time

	mu    sync.Mutex
	known map[topo.NodeID]bool
	last  map[topo.NodeID]time.Time
}

// New creates a watchdog; servers missing a heartbeat for ttl are unhealthy.
func New(ttl time.Duration) *Service {
	return &Service{
		ttl:   ttl,
		clock: time.Now,
		known: make(map[topo.NodeID]bool),
		last:  make(map[topo.NodeID]time.Time),
	}
}

// SetClock overrides time for tests.
func (s *Service) SetClock(clock func() time.Time) { s.clock = clock }

// Track registers a server the watchdog expects heartbeats from.
func (s *Service) Track(n topo.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.known[n] = true
	if _, ok := s.last[n]; !ok {
		s.last[n] = s.clock()
	}
}

// Heartbeat records liveness of a server.
func (s *Service) Heartbeat(n topo.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.known[n] = true
	s.last[n] = s.clock()
}

// Unhealthy lists tracked servers whose last heartbeat is older than TTL.
func (s *Service) Unhealthy() []topo.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	var out []topo.NodeID
	for n := range s.known {
		if now.Sub(s.last[n]) > s.ttl {
			out = append(out, n)
		}
	}
	return out
}

// UnhealthySet returns the unhealthy servers as a set for pll.Config.
func (s *Service) UnhealthySet() map[topo.NodeID]bool {
	out := make(map[topo.NodeID]bool)
	for _, n := range s.Unhealthy() {
		out[n] = true
	}
	return out
}

// Handler serves POST /heartbeat?node=ID and GET /health, plus the
// standard observability surface (GET /healthz, GET /metrics).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id, err := strconv.Atoi(r.URL.Query().Get("node"))
		if err != nil {
			http.Error(w, "bad node id", http.StatusBadRequest)
			return
		}
		s.Heartbeat(topo.NodeID(id))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		resp := struct {
			Unhealthy []topo.NodeID `json:"unhealthy"`
		}{Unhealthy: s.Unhealthy()}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", obs.HealthzHandler(func() obs.Health {
		h := obs.Health{Status: "ok", Service: "watchdog"}
		if un := s.Unhealthy(); len(un) > 0 {
			h.Status = "degraded"
			h.Detail = fmt.Sprintf("%d tracked servers past TTL", len(un))
		}
		return h
	}))
	mux.HandleFunc("/metrics", obs.MetricsHandler())
	return mux
}

// SendHeartbeat posts one heartbeat to a watchdog URL on behalf of node n.
func SendHeartbeat(client *http.Client, baseURL string, n topo.NodeID) error {
	resp, err := client.Post(fmt.Sprintf("%s/heartbeat?node=%d", baseURL, n), "text/plain", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("watchdog: heartbeat status %s", resp.Status)
	}
	return nil
}
