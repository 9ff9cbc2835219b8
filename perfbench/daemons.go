package main

import (
	"fmt"
	"net/http"
	"time"
)

// daemons is one tdacd shard, optionally behind a tdac-router, started
// from the checkout's build.
type daemons struct {
	shard, router       *proc
	shardURL, routerURL string
}

// stop stops the router, then the shard, and waits for both.
func (d *daemons) stop() {
	if d == nil {
		return
	}
	d.router.stop()
	d.shard.stop()
}

// startDaemons starts a tdacd shard (ID s0, pprof on) with extra flags,
// and a tdac-router in front of it when withRouter is set, and waits
// until each answers /readyz.
func (r *run) startDaemons(hc *http.Client, rep int, shardFlags []string, withRouter bool) (*daemons, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemons{shardURL: fmt.Sprintf("http://127.0.0.1:%d", port)}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-shard-id", "s0", "-pprof"}, shardFlags...)
	if d.shard, err = r.startProc(fmt.Sprintf("tdacd-%d", rep), "tdacd", args...); err != nil {
		return nil, err
	}
	if err := waitOK(hc, d.shard, d.shardURL+"/readyz", time.Minute); err != nil {
		d.stop()
		return nil, err
	}
	if !withRouter {
		return d, nil
	}
	if port, err = freePort(); err != nil {
		d.stop()
		return nil, err
	}
	d.routerURL = fmt.Sprintf("http://127.0.0.1:%d", port)
	d.router, err = r.startProc(fmt.Sprintf("tdac-router-%d", rep), "tdac-router",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-cluster", "s0="+d.shardURL)
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := waitOK(hc, d.router, d.routerURL+"/readyz", time.Minute); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// setUp starts the daemons setupReps times, each time from scratch, and
// returns the last set running with the set-up time of every start.
// flags gives the shard's flags for each repetition; ready, when
// non-nil, is part of the set-up (preloaded datasets readable, state
// primed).
func (r *run) setUp(hc *http.Client, flags func(rep int) []string, withRouter bool, ready func(*daemons) error) (*daemons, []float64, error) {
	var d *daemons
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		d.stop()
		t0 := time.Now()
		var err error
		d, err = r.startDaemons(hc, rep, flags(rep), withRouter)
		if err == nil && ready != nil {
			if err = ready(d); err != nil {
				d.stop()
			}
		}
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}
