package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxSpecBytes bounds a POST /jobs body.
const maxSpecBytes = 1 << 20

// RegisterRoutes mounts the job API on mux (Go 1.22 method+wildcard
// patterns):
//
//	POST /jobs                  submit a grid (Spec JSON) → 202 + Status
//	GET  /jobs                  all job statuses, submission order
//	GET  /jobs/{id}             one job's live status + fleet aggregate
//	GET  /jobs/{id}/plot/{kind} fleet figure as SVG
//	GET  /events/{id}           SSE progress stream (terminal "done" frame)
func (s *Service) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/plot/{kind}", s.handleJobPlot)
	mux.HandleFunc("GET /events/{id}", s.handleEvents)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(mustJSON(v), '\n'))
}

// decodeSpec reads one job spec from r. Unknown fields are an error, and
// so is anything but whitespace after the spec, so r is read to its end.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch err := dec.Decode(new(json.RawMessage)); {
	case err == nil:
		return spec, errors.New("more than one JSON value")
	case err != io.EOF:
		return spec, fmt.Errorf("after the spec: %w", err)
	}
	return spec, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	// Read to EOF and closed, the body needs no draining by net/http.
	r.Body.Close()
	j, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, errDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, errBusy):
			code = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.JobsSnapshot()
	out := make([]*Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j := s.Get(id)
	if j == nil {
		http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
	}
	return j
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleJobPlot(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	c, err := j.Chart(r.PathValue("kind"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	if err := c.Render(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleEvents streams the job's frames in SSE wire format until the
// terminal frame or client disconnect. The server's WriteTimeout would cut
// long-lived streams, so the handler clears the connection's write deadline
// via ResponseController — the one endpoint that legitimately outlives it.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.SetWriteDeadline(time.Time{}); err != nil && !errors.Is(err, http.ErrNotSupported) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 2000\n\n")
	rc.Flush()

	frames, cancel := j.Events().Subscribe()
	defer cancel()
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				return // terminal frame already delivered
			}
			if _, err := f.WriteTo(w); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
