package verify

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"tdac/internal/cluster"
	"tdac/internal/server"
	"tdac/internal/sse"
)

// Cluster invariants: sharding a registry across a consistent-hash ring
// and routing through tdac-router may never change an answer. Dataset-
// granular placement means a discover job reads nothing outside its own
// dataset's pinned snapshot, so a 3-shard cluster must reproduce a
// single node bit for bit — in discover results, listings and event
// streams — including after a primary is killed and its follower
// promoted (DESIGN.md §14).

func init() {
	register(
		Invariant{
			Name:        "cluster-vs-single-node",
			Class:       Metamorphic,
			Description: "a seeded 3-shard cluster behind the router returns the same discover results, dataset listing bytes and job event streams as one node holding every dataset",
			Quick:       false,
			Check:       checkClusterVsSingle,
		},
		Invariant{
			Name:        "cluster-failover-preserves-results",
			Class:       Metamorphic,
			Description: "after a primary is killed and its follower promoted, every dataset acked before the crash is served and a re-run discover matches the single node bit for bit",
			Quick:       false,
			Check:       checkClusterFailover,
		},
	)
}

// clusterDatasets builds the deterministic multi-dataset workload both
// cluster invariants seed: name → claims in ingestion order.
func clusterDatasets() (names []string, claims map[string][]server.ClaimInput, err error) {
	claims = make(map[string][]server.ClaimInput)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("verify-cluster-%d", i)
		gen, err := plantedDataset(8 + 2*i)
		if err != nil {
			return nil, nil, err
		}
		d := gen.Dataset
		cs := make([]server.ClaimInput, len(d.Claims))
		for j, c := range d.Claims {
			cs[j] = server.ClaimInput{
				Source:    d.SourceName(c.Source),
				Object:    d.ObjectName(c.Object),
				Attribute: d.AttrName(c.Attr),
				Value:     c.Value,
			}
		}
		names = append(names, name)
		claims[name] = cs
	}
	return names, claims, nil
}

// seedAndDiscover creates name, ingests its claims and runs one
// discovery with the request body req through base, returning the
// terminal job reply and its id.
func seedAndDiscover(client *http.Client, base, name string, claims []server.ClaimInput, req map[string]any) (*jobReply, string, error) {
	if err := postJSON(client, base+"/v1/datasets", map[string]string{"name": name}, nil); err != nil {
		return nil, "", err
	}
	if err := postJSON(client, base+"/v1/datasets/"+name+"/claims", map[string]any{"claims": claims}, nil); err != nil {
		return nil, "", err
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := postJSON(client, base+"/v1/datasets/"+name+"/discover", req, &submitted); err != nil {
		return nil, "", err
	}
	jv, err := awaitJob(client, base, submitted.ID)
	if err != nil {
		return nil, "", err
	}
	if jv.State != string(server.JobDone) {
		return nil, "", fmt.Errorf("job on %s finished %s: %s", name, jv.State, jv.Error)
	}
	return jv, submitted.ID, nil
}

// canonicalResult fetches a terminal job's result and renders it in a
// canonical form with the wall-clock field zeroed — everything else,
// floats included, must match bit for bit.
func canonicalResult(client *http.Client, base, id string) (string, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Result map[string]any `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	if body.Result == nil {
		return "", fmt.Errorf("job %s carries no result", id)
	}
	delete(body.Result, "runtime_ms")
	out, err := json.Marshal(body.Result)
	return string(out), err
}

// scrubTimes strips the wall-clock and identity fields that legitimately
// differ between a cluster and a single node: job ids carry a shard
// prefix, timestamps and elapsed times are wall-clock. Everything else —
// states, phases, k values, silhouettes, truth, trust — must match.
func scrubTimes(v any, jobID string) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "enqueued_at", "started_at", "finished_at", "runtime_ms", "elapsed_ms":
				delete(x, k)
			default:
				x[k] = scrubTimes(val, jobID)
			}
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrubTimes(x[i], jobID)
		}
		return x
	case string:
		if x == jobID {
			return "JOB"
		}
		return x
	default:
		return v
	}
}

// canonicalStream fetches a finished job's whole event stream and
// renders it canonically: frame ids and names verbatim, payloads with
// wall-clock fields scrubbed and the job id normalised.
func canonicalStream(client *http.Client, base, id string) (string, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events for %s: %s", id, resp.Status)
	}
	r := sse.NewReader(resp.Body)
	var b strings.Builder
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return "", fmt.Errorf("reading stream of %s: %w", id, err)
		}
		var payload any
		if err := json.Unmarshal([]byte(ev.Data), &payload); err != nil {
			return "", fmt.Errorf("frame %s of %s: %w", ev.ID, id, err)
		}
		canon, err := json.Marshal(scrubTimes(payload, id))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s %s %s\n", ev.ID, ev.Name, canon)
	}
}

// threeShardCluster stands up n shard servers with the ownership gate
// wired to a shared ring, plus a router in front. The returned cleanup
// shuts everything down.
type shardNode struct {
	srv *server.Server
	ts  *httptest.Server
}

func startCluster(n int, mkConfig func(i int) server.Config) ([]*shardNode, *cluster.Ring, *cluster.Router, *httptest.Server, func(), error) {
	var nodes []*shardNode
	var ring *cluster.Ring // set below; the Owns closures capture it
	cleanup := func() {
		for _, nd := range nodes {
			nd.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = nd.srv.Shutdown(ctx)
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		cfg := mkConfig(i)
		cfg.ShardID = id
		cfg.Owns = func(name string) (bool, string, string) {
			m := ring.Owner(name)
			return m.ID == id, m.ID, m.URL
		}
		srv, err := server.New(cfg)
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, nil, err
		}
		nodes = append(nodes, &shardNode{srv: srv, ts: httptest.NewServer(srv.Handler())})
	}
	members := make([]cluster.Member, n)
	for i, nd := range nodes {
		members[i] = cluster.Member{ID: fmt.Sprintf("s%d", i), URL: nd.ts.URL}
	}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, nil, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Ring:          ring,
		ProbeInterval: time.Hour, // invariants drive probing explicitly
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, nil, err
	}
	front := httptest.NewServer(rt.Handler())
	all := func() {
		front.Close()
		rt.Close()
		cleanup()
	}
	return nodes, ring, rt, front, all, nil
}

func checkClusterVsSingle(cfg Config) error {
	names, claims, err := clusterDatasets()
	if err != nil {
		return err
	}

	// The reference: one node holding every dataset.
	single, err := server.New(server.Config{Workers: 2, QueueSize: 16})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = single.Shutdown(ctx)
	}()
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	_, _, _, front, stop, err := startCluster(3, func(int) server.Config {
		return server.Config{Workers: 2, QueueSize: 16}
	})
	if err != nil {
		return err
	}
	defer stop()

	client := &http.Client{Timeout: 60 * time.Second}
	// One worker makes both event streams deterministic: the k-sweep and
	// the per-group base runs emit their k and group frames in completion
	// order, which only a single-worker pool fixes.
	req := map[string]any{"seed": 1, "workers": 1}
	for _, name := range names {
		_, singleJob, err := seedAndDiscover(client, singleTS.URL, name, claims[name], req)
		if err != nil {
			return fmt.Errorf("single node, %s: %w", name, err)
		}
		_, clusterJob, err := seedAndDiscover(client, front.URL, name, claims[name], req)
		if err != nil {
			return fmt.Errorf("cluster, %s: %w", name, err)
		}

		singleRes, err := canonicalResult(client, singleTS.URL, singleJob)
		if err != nil {
			return err
		}
		clusterRes, err := canonicalResult(client, front.URL, clusterJob)
		if err != nil {
			return err
		}
		if singleRes != clusterRes {
			return fmt.Errorf("discover result for %s diverges:\nsingle:  %s\ncluster: %s", name, singleRes, clusterRes)
		}

		singleStream, err := canonicalStream(client, singleTS.URL, singleJob)
		if err != nil {
			return err
		}
		clusterStream, err := canonicalStream(client, front.URL, clusterJob)
		if err != nil {
			return err
		}
		if singleStream != clusterStream {
			return fmt.Errorf("event stream for %s diverges:\nsingle:\n%s\ncluster:\n%s", name, singleStream, clusterStream)
		}
	}

	// The fan-out listing must be byte-identical to the single node's.
	readBody := func(url string) (string, error) {
		resp, err := client.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return string(data), err
	}
	singleList, err := readBody(singleTS.URL + "/v1/datasets")
	if err != nil {
		return err
	}
	clusterList, err := readBody(front.URL + "/v1/datasets")
	if err != nil {
		return err
	}
	if singleList != clusterList {
		return fmt.Errorf("dataset listing diverges byte-wise:\nsingle:  %q\ncluster: %q", singleList, clusterList)
	}
	return nil
}

func checkClusterFailover(cfg Config) error {
	names, claims, err := clusterDatasets()
	if err != nil {
		return err
	}

	single, err := server.New(server.Config{Workers: 2, QueueSize: 16})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = single.Shutdown(ctx)
	}()
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	// Shard s0 is durable so its follower has a WAL to replicate; the
	// other shards stay in-memory.
	walDir, err := os.MkdirTemp("", "tdac-verify-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	nodes, ring, rt, front, stop, err := startCluster(3, func(i int) server.Config {
		c := server.Config{Workers: 2, QueueSize: 16}
		if i == 0 {
			c.DataDir = walDir
		}
		return c
	})
	if err != nil {
		return err
	}
	defer stop()

	follower, err := server.NewFollower(server.FollowerConfig{
		Primary: nodes[0].ts.URL,
		Dir:     walDir + "-mirror",
		Poll:    time.Hour, // synced explicitly below
		Serve:   server.Config{Workers: 2, QueueSize: 16, ShardID: "s0"},
	})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = follower.Close(ctx)
	}()
	defer os.RemoveAll(walDir + "-mirror")
	folTS := httptest.NewServer(follower.Handler())
	defer folTS.Close()
	// Rebuild the router over a ring that knows the follower. Placement
	// is unchanged (same member IDs); only the failover target is added.
	members := ring.Members()
	members[0].Follower = folTS.URL
	ring2, err := cluster.NewRing(members, 0)
	if err != nil {
		return err
	}
	rt.Close()
	front.Close()
	rt2, err := cluster.NewRouter(cluster.RouterConfig{
		Ring: ring2, ProbeInterval: time.Hour,
		ProbeTimeout: 200 * time.Millisecond, FailThreshold: 2,
	})
	if err != nil {
		return err
	}
	defer rt2.Close()
	front2 := httptest.NewServer(rt2.Handler())
	defer front2.Close()

	client := &http.Client{Timeout: 60 * time.Second}
	singleResults := make(map[string]string)
	var ownedByS0 []string
	for _, name := range names {
		if ring2.Owner(name).ID == "s0" {
			ownedByS0 = append(ownedByS0, name)
		}
		_, singleJob, err := seedAndDiscover(client, singleTS.URL, name, claims[name], map[string]any{"seed": 1})
		if err != nil {
			return fmt.Errorf("single node, %s: %w", name, err)
		}
		if singleResults[name], err = canonicalResult(client, singleTS.URL, singleJob); err != nil {
			return err
		}
		if _, _, err := seedAndDiscover(client, front2.URL, name, claims[name], map[string]any{"seed": 1}); err != nil {
			return fmt.Errorf("cluster, %s: %w", name, err)
		}
	}
	if len(ownedByS0) == 0 {
		// The hash layout is deterministic, so this would be a permanent
		// blind spot, not flakiness: fail loudly.
		return fmt.Errorf("no verify dataset landed on shard s0; grow clusterDatasets")
	}

	// Replicate everything acked so far, then kill s0's primary and force
	// the failover.
	if err := follower.SyncOnce(); err != nil {
		return fmt.Errorf("follower sync: %w", err)
	}
	nodes[0].ts.CloseClientConnections()
	nodes[0].ts.Close()
	rt2.ProbeNow()
	rt2.ProbeNow()
	resp, err := client.Post(front2.URL+"/v1/cluster/promote/s0", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote s0: %s", resp.Status)
	}

	// Every dataset acked before the crash is still served through the
	// router, s0's from the promoted follower.
	for _, name := range names {
		resp, err := client.Get(front2.URL + "/v1/datasets/" + name)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("dataset %s lost after failover: %s", name, resp.Status)
		}
	}

	// A fresh discover on a failed-over dataset must still match the
	// single node bit for bit: the follower recovered a bit-identical
	// registry, so the pinned snapshot it computes on is the same.
	for _, name := range ownedByS0 {
		var submitted struct {
			ID string `json:"id"`
		}
		if err := postJSON(client, front2.URL+"/v1/datasets/"+name+"/discover", map[string]any{"seed": 1}, &submitted); err != nil {
			return fmt.Errorf("discover %s after failover: %w", name, err)
		}
		jv, err := awaitJob(client, front2.URL, submitted.ID)
		if err != nil {
			return err
		}
		if jv.State != string(server.JobDone) {
			return fmt.Errorf("post-failover job on %s finished %s: %s", name, jv.State, jv.Error)
		}
		got, err := canonicalResult(client, front2.URL, submitted.ID)
		if err != nil {
			return err
		}
		if got != singleResults[name] {
			return fmt.Errorf("post-failover result for %s diverges from the single node", name)
		}
	}
	return nil
}
