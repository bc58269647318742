package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tcast/internal/serve"
)

// conns is the number of client connections: at most the machine's
// cores, and at most two, so the offered load is the same on any
// machine.
func conns() int { return min(runtime.NumCPU(), 2) }

// reqHeader carries a request's list index to the daemon, so the traced
// run's handler spans join the client's.
const reqHeader = "X-Perfbench-Req"

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns(),
			MaxConnsPerHost:     conns(),
			DisableCompression:  true,
		},
	}
}

// sent is one request's client-side record.
type sent struct {
	idx              int
	due, sent, acked time.Time
	code             int // HTTP status, 0 on a transport error
	err              error
	status           serve.Status
	statusRTT        time.Duration // the verdict-collection GET
}

// ok reports whether the daemon accepted the request.
func (s *sent) ok() bool { return s.err == nil && s.code/100 == 2 }

// post submits one request and decodes the status it returns.
func post(c *http.Client, base string, idx int, req request, wait bool) sent {
	body, err := json.Marshal(req)
	rec := sent{idx: idx}
	if err != nil {
		rec.err = err
		return rec
	}
	url := base + "/query"
	if wait {
		url += "?wait=1"
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(reqHeader, strconv.Itoa(idx))
	rec.sent = time.Now()
	rec.code, rec.err = do(c, hr, &rec.status)
	rec.acked = time.Now()
	return rec
}

// getStatus fetches GET /query/{id}.
func getStatus(c *http.Client, base, id string, idx int) (serve.Status, error) {
	hr, err := http.NewRequest(http.MethodGet, base+"/query/"+id, nil)
	if err != nil {
		return serve.Status{}, err
	}
	hr.Header.Set(reqHeader, strconv.Itoa(idx))
	var st serve.Status
	code, err := do(c, hr, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /query/%s: status %d", id, code)
	}
	return st, err
}

// do sends hr and decodes a 2xx JSON body into v; the body is always
// drained so the connection is reused.
func do(c *http.Client, hr *http.Request, v any) (int, error) {
	resp, err := c.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// openLoop sends reqs[from:to] on their schedule, shifted earlier by
// offset, from conns() connections, and fills recs[from:to]. A request
// whose due time has passed is sent at once: the generator never skips
// or delays the schedule to suit the daemon.
func openLoop(c *http.Client, base string, reqs []request, from, to int, offset time.Duration, recs []sent) (start time.Time) {
	var mu sync.Mutex
	next := from
	start = time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= to {
					return
				}
				due := start.Add(reqs[i].due - offset)
				sleepUntil(due)
				rec := post(c, base, i, reqs[i], false)
				rec.due = due
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return start
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than
// time.Sleep, whose wake-ups the Go runtime rounds up to whole
// milliseconds on Linux: on a 1000 q/s schedule that would make the
// generator itself, not the daemon, the largest part of the latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop runs whole passes over pass from conns() clients, each
// sending its next request when its previous one returns (?wait=1), and
// starts no further pass once d has elapsed. Record k is request pass[k%len(pass)].
func closedLoop(c *http.Client, base string, pass []request, d time.Duration) (start time.Time, recs []sent) {
	var mu sync.Mutex
	next, stop := 0, false
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next > 0 && next%len(pass) == 0 && time.Since(start) >= d {
					stop = true
				}
				if stop {
					mu.Unlock()
					return
				}
				k := next
				next++
				recs = append(recs, sent{})
				mu.Unlock()
				rec := post(c, base, k, pass[k%len(pass)], true)
				rec.due = rec.sent
				mu.Lock()
				recs[k] = rec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return start, recs
}

// collect fetches the final status of every accepted request in recs,
// from conns() connections, timing each fetch.
func collect(c *http.Client, base string, recs []sent) error {
	var mu sync.Mutex
	next := 0
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(recs) {
					return
				}
				if !recs[i].ok() {
					continue
				}
				t0 := time.Now()
				st, err := waitTerminal(c, base, recs[i].status.ID, recs[i].idx)
				took := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				recs[i].status = st
				recs[i].statusRTT = took
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// waitTerminal polls a session's status until it has finished.
func waitTerminal(c *http.Client, base, id string, idx int) (serve.Status, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := getStatus(c, base, id, idx)
		if err != nil || st.State == serve.StateDone.String() || st.State == serve.StateFailed.String() {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("session %s still %s after 30s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}
