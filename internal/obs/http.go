package obs

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// Handler serves the registry's exposition endpoints:
//
//	GET /stats       aligned plain text (for humans and grep)
//	GET /stats.json  the JSON document ParseJSON/Fetch decode
//
// registryd mounts it on its -http listener; anything that can speak
// HTTP can scrape it.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, req *http.Request) {
		doc, err := r.Snapshot().MarshalJSONIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc)
	})
	return mux
}

// Fetch retrieves and decodes a /stats.json exposition from a stats
// endpoint ("host:port" or a full URL) — the client side `sdctl stats`
// uses.
func Fetch(endpoint string, timeout time.Duration) (Snapshot, error) {
	url := endpoint
	if len(url) < 7 || (url[:7] != "http://" && (len(url) < 8 || url[:8] != "https://")) {
		url = "http://" + url
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url + "/stats.json")
	if err != nil {
		return Snapshot{}, fmt.Errorf("obs: fetching stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Snapshot{}, fmt.Errorf("obs: stats endpoint returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return Snapshot{}, fmt.Errorf("obs: reading stats: %w", err)
	}
	return ParseJSON(body)
}
