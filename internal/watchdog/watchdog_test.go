package watchdog

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/topo"
)

func TestUnhealthyAfterTTL(t *testing.T) {
	now := time.Now()
	clock := &now
	s := New(time.Second)
	s.SetClock(func() time.Time { return *clock })

	s.Track(1)
	s.Track(2)
	s.Heartbeat(1)
	if got := s.Unhealthy(); len(got) != 0 {
		t.Fatalf("fresh servers unhealthy: %v", got)
	}
	later := now.Add(2 * time.Second)
	clock = &later
	unhealthy := s.UnhealthySet()
	if !unhealthy[1] || !unhealthy[2] {
		t.Fatalf("stale servers not flagged: %v", unhealthy)
	}
	// A heartbeat revives node 1.
	s.Heartbeat(1)
	unhealthy = s.UnhealthySet()
	if unhealthy[1] || !unhealthy[2] {
		t.Fatalf("revival wrong: %v", unhealthy)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	s := New(time.Minute)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	if err := SendHeartbeat(client, srv.URL, 42); err != nil {
		t.Fatal(err)
	}
	s.Track(43) // tracked but never heartbeating... fresh until TTL
	resp, err := client.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Unhealthy []topo.NodeID `json:"unhealthy"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(health.Unhealthy) != 0 {
		t.Fatalf("fresh nodes flagged unhealthy: %v", health.Unhealthy)
	}

	// Bad requests are rejected.
	resp, err = client.Post(srv.URL+"/heartbeat?node=abc", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad node id accepted: %s", resp.Status)
	}
	resp, err = client.Get(srv.URL + "/heartbeat?node=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET heartbeat accepted: %s", resp.Status)
	}
}
