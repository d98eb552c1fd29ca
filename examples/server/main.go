// Server front-end demo: the engine behind real HTTP, including the
// rebalancing flow — snapshot → kill → restore → bit-identity.
//
// 120 simulated sensors each emit one bag of readings per tick, pushed
// as NDJSON batches to a bagcpd HTTP server (POST /v1/push). Halfway
// through the horizon the first server instance is snapshotted
// (GET /v1/snapshot) and torn down — as if the process crashed or its
// streams were being rebalanced to another shard — and a SECOND server
// instance restores the envelope (POST /v1/restore) and serves the rest
// of the run. An uninterrupted in-process engine provides the reference:
// every score, interval bound and alarm the restored server emits must
// match it EXACTLY, bit for bit, as if the handoff never happened.
//
// Run: go run ./examples/server
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strings"

	"repro"
)

const (
	sensors = 120
	steps   = 40
	cut     = 20 // handoff tick: snapshot/kill/restore happens here
)

func newEngine() (*repro.Engine, error) {
	return repro.NewEngine(
		repro.WithTau(5), repro.WithTauPrime(4),
		repro.WithBuilderFactory(repro.HistogramFactory(-6, 10, 32)),
		repro.WithBuilderTag("hist(lo=-6,hi=10,bins=32)"),
		repro.WithBootstrap(repro.BootstrapConfig{Replicates: 400}),
		repro.WithSeed(2026),
	)
}

// instance is one live server: engine + HTTP listener.
type instance struct {
	eng  *repro.Engine
	http *http.Server
	srv  *repro.Server
	base string
}

func startInstance() (*instance, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	srv, err := repro.NewServer(repro.ServerConfig{Engine: eng})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst := &instance{
		eng:  eng,
		srv:  srv,
		http: &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
	}
	go inst.http.Serve(ln)
	return inst, nil
}

// kill tears the instance down ungracefully-ish: listener closed, engine
// shut down. Anything not in a snapshot is gone.
func (in *instance) kill() {
	in.http.Close()
	in.srv.Close()
	in.eng.Shutdown()
}

// sensorBags generates every sensor's bag for one tick. The generator is
// its own RNG so the data stream is identical no matter who consumes it.
func sensorBags(rng *rand.Rand, failAt map[string]int, tick int) map[string][]float64 {
	out := make(map[string][]float64, sensors)
	for s := 0; s < sensors; s++ {
		id := sensorID(s)
		mu := 0.0
		if ft, failing := failAt[id]; failing && tick >= ft {
			mu = 2.5
		}
		n := 30 + rng.Intn(30)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = mu + rng.NormFloat64()
		}
		out[id] = vals
	}
	return out
}

// pushTick POSTs one tick's bags as an NDJSON batch and returns the
// scored rows keyed by stream.
func pushTick(base string, bags map[string][]float64) (map[string]string, error) {
	var body strings.Builder
	for s := 0; s < sensors; s++ {
		id := sensorID(s)
		pts := make([][]float64, len(bags[id]))
		for i, v := range bags[id] {
			pts[i] = []float64{v}
		}
		blob, _ := json.Marshal(pts)
		fmt.Fprintf(&body, "{\"stream\":%q,\"bag\":%s}\n", id, blob)
	}
	resp, err := http.Post(base+"/v1/push", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("push: %s: %s", resp.Status, msg)
	}
	rows := make(map[string]string, sensors)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var row struct {
			Stream  string `json:"stream"`
			Pending bool   `json:"pending"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, err
		}
		if !row.Pending {
			rows[row.Stream] = sc.Text()
		}
	}
	return rows, sc.Err()
}

func main() {
	// A third of the fleet drifts at a per-sensor time after the handoff,
	// so detection happens on the RESTORED instance.
	metaRNG := rand.New(rand.NewSource(99))
	failAt := make(map[string]int)
	for s := 0; s < sensors; s++ {
		if s%3 == 0 {
			failAt[sensorID(s)] = cut + 2 + metaRNG.Intn(8)
		}
	}
	tickData := make([]map[string][]float64, steps)
	dataRNG := rand.New(rand.NewSource(7))
	for tick := 0; tick < steps; tick++ {
		tickData[tick] = sensorBags(dataRNG, failAt, tick)
	}

	// Uninterrupted reference: the same bags through one in-process
	// engine that never stops.
	refEng, err := newEngine()
	if err != nil {
		log.Fatal(err)
	}
	refRows := make([]map[string]*repro.Point, steps)
	for tick := 0; tick < steps; tick++ {
		batch := make([]repro.StreamBag, sensors)
		for s := 0; s < sensors; s++ {
			id := sensorID(s)
			batch[s] = repro.StreamBag{StreamID: id, Bag: repro.BagFromScalars(tick, tickData[tick][id])}
		}
		results, err := refEng.PushBatch(batch)
		if err != nil {
			log.Fatal(err)
		}
		refRows[tick] = make(map[string]*repro.Point, sensors)
		for _, res := range results {
			if res.Point != nil {
				refRows[tick][res.StreamID] = res.Point
			}
		}
	}

	// Instance A serves the first half of the horizon.
	instA, err := startInstance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance A up at %s — %d sensors, steps 0..%d\n", instA.base, sensors, cut-1)
	for tick := 0; tick < cut; tick++ {
		if _, err := pushTick(instA.base, tickData[tick]); err != nil {
			log.Fatal(err)
		}
	}

	// Snapshot A, then kill it.
	resp, err := http.Get(instA.base + "/v1/snapshot")
	if err != nil {
		log.Fatal(err)
	}
	envelope, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var envMeta struct {
		Version int `json:"version"`
		Streams []struct {
			ID string `json:"id"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(envelope, &envMeta); err != nil {
		log.Fatal(err)
	}
	instA.kill()
	fmt.Printf("snapshot taken (v%d envelope, %d streams, %d KiB); instance A killed\n",
		envMeta.Version, len(envMeta.Streams), len(envelope)/1024)

	// Instance B restores the envelope and serves the rest.
	instB, err := startInstance()
	if err != nil {
		log.Fatal(err)
	}
	resp, err = http.Post(instB.base+"/v1/restore", "application/json", strings.NewReader(string(envelope)))
	if err != nil {
		log.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("restore: %s: %s", resp.Status, msg)
	}
	fmt.Printf("instance B up at %s — restored, steps %d..%d\n", instB.base, cut, steps-1)

	// Second half through B; every scored row must match the reference
	// bit for bit.
	mismatches, compared := 0, 0
	firstAlarm := make(map[string]int)
	for tick := cut; tick < steps; tick++ {
		rows, err := pushTick(instB.base, tickData[tick])
		if err != nil {
			log.Fatal(err)
		}
		for id, raw := range rows {
			var row struct {
				T     int     `json:"t"`
				Score float64 `json:"score"`
				Lo    float64 `json:"lo"`
				Up    float64 `json:"up"`
				Alarm bool    `json:"alarm"`
			}
			if err := json.Unmarshal([]byte(raw), &row); err != nil {
				log.Fatal(err)
			}
			want := refRows[tick][id]
			compared++
			if want == nil || row.Score != want.Score || row.Lo != want.Interval.Lo ||
				row.Up != want.Interval.Up || row.T != want.T || row.Alarm != want.Alarm {
				mismatches++
			}
			if row.Alarm {
				if _, seen := firstAlarm[id]; !seen {
					firstAlarm[id] = row.T
				}
			}
		}
	}

	fmt.Printf("\nbit-identity after restore: %d/%d scored rows match the uninterrupted reference", compared-mismatches, compared)
	if mismatches == 0 {
		fmt.Printf(" — exact handoff ✓\n")
	} else {
		fmt.Printf(" — %d MISMATCHES ✗\n", mismatches)
	}

	// Fleet verdict, all detected on the restored instance.
	var flagged, missed, falsePos int
	for s := 0; s < sensors; s++ {
		id := sensorID(s)
		_, alarmed := firstAlarm[id]
		_, failing := failAt[id]
		switch {
		case failing && alarmed:
			flagged++
		case failing:
			missed++
		case alarmed:
			falsePos++
		}
	}
	fmt.Printf("degraded sensors flagged by instance B: %d/%d (missed %d, false alarms %d)\n",
		flagged, len(failAt), missed, falsePos)

	// A taste of the metrics endpoint.
	resp, err = http.Get(instB.base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\ninstance B /metrics excerpt:")
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.HasPrefix(line, "bagcpd_streams_open") ||
			strings.HasPrefix(line, "bagcpd_push_bags_total") ||
			strings.HasPrefix(line, "bagcpd_restores_total") ||
			strings.HasPrefix(line, "bagcpd_push_batch_seconds{quantile=\"0.9\"}") {
			fmt.Println("  " + line)
		}
	}
	instB.kill()
}

func sensorID(s int) string { return fmt.Sprintf("sensor-%03d", s) }
