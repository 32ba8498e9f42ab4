// Package daemon is the kit the survey commands are assembled from: one
// HTTP read API over committed generation views (dnsmonitord serves a
// Monitor through it, dnsfleetd a fleet Coordinator), one flags→Options
// binder for the session and policy flag blocks, and one Serve loop
// with bind-first start-up and a draining shutdown.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"dnstrust/internal/delta"
	"dnstrust/internal/view"
)

// Source is what the read API serves: an owner's retained committed
// views, oldest to newest, the last one current. *dnstrust.Monitor and
// *fleet.Coordinator both are one. Every request answers from a single
// Timeline call, so the defaults it resolves (latest generation, oldest
// retained) and the views it reads cannot straddle a commit.
type Source interface {
	Timeline() []*view.View
}

// API is the read-handler set shared by the HTTP daemons. Handlers read
// immutable views and never block behind a crawl or merge round.
type API struct {
	Source Source
	// Shard, when set, names the fleet shard owning a name; per-name
	// answers then carry it as "shard".
	Shard func(name string) string
	// Stats, when set, adds the daemon's own counters to the /stats
	// fields computed from v.
	Stats func(v *view.View, fields map[string]any)
}

// Mount registers the read API on mux (the README's endpoint table
// documents each answer). Answers from a merged fleet view also carry
// its stale-shard facts.
func (a *API) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /summary", a.read(summary))
	mux.HandleFunc("GET /tcb", a.read(a.named(tcb)))
	mux.HandleFunc("GET /bottleneck", a.read(a.named(bottleneck)))
	mux.HandleFunc("GET /audit", a.read(a.named(audit)))
	mux.HandleFunc("GET /stats", a.read(a.stats))
	mux.HandleFunc("GET /generations", a.read(generations))
	mux.HandleFunc("GET /diff", a.read(diff))
	mux.HandleFunc("GET /watch", a.read(watch))
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; a failed write means the client left
}

// WriteErr answers with {"error": err}.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// ReadNames reads a POST body of whitespace-separated names, or fails
// the request.
func ReadNames(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	names := strings.Fields(string(body))
	if len(names) == 0 {
		WriteErr(w, http.StatusBadRequest, errors.New("empty body: send whitespace-separated names"))
		return nil, false
	}
	return names, true
}

// failure is a handler error that knows its HTTP status.
type failure struct {
	status int
	error
}

func badRequest(err error) error { return failure{http.StatusBadRequest, err} }
func notFound(err error) error   { return failure{http.StatusNotFound, err} }

// reader computes one endpoint's answer from the retained views tl
// (never empty; the last is current) and the request's query.
type reader func(ctx context.Context, tl []*view.View, q url.Values) (any, error)

// read serves fn over one Timeline snapshot. A fleet has no views until
// its first merge round commits; until then every read answers 503.
func (a *API) read(fn reader) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tl := a.Source.Timeline()
		if len(tl) == 0 {
			WriteErr(w, http.StatusServiceUnavailable, errors.New("no generation committed yet"))
			return
		}
		body, err := fn(r.Context(), tl, r.URL.Query())
		if f := (failure{}); errors.As(err, &f) {
			WriteErr(w, f.status, f.error)
		} else if err != nil {
			WriteErr(w, http.StatusInternalServerError, err)
		} else {
			WriteJSON(w, http.StatusOK, body)
		}
	}
}

// named adapts a per-name analysis to a reader: it resolves ?name=,
// starts the answer every per-name endpoint shares, and answers 404
// when the current view does not hold the name.
func (a *API) named(fill func(v *view.View, name string, out map[string]any) error) reader {
	return func(_ context.Context, tl []*view.View, q url.Values) (any, error) {
		name := q.Get("name")
		if name == "" {
			return nil, badRequest(errors.New("missing ?name= parameter"))
		}
		v := tl[len(tl)-1]
		out := map[string]any{"generation": v.Generation(), "name": name}
		if a.Shard != nil {
			out["shard"] = a.Shard(name)
		}
		if err := fill(v, name, out); err != nil {
			return nil, notFound(err)
		}
		return out, nil
	}
}

// staleFields adds a merged view's stale-shard facts to out.
func staleFields(v *view.View, out map[string]any) {
	if v.Merged() {
		out["stale"] = v.Stale()
		out["stale_shards"] = v.StaleShards()
	}
}

// dimensions starts an answer with a view's generation and sizes.
func dimensions(v *view.View) map[string]any {
	g := v.Survey().Graph
	out := map[string]any{
		"generation": v.Generation(),
		"names":      v.NumNames(),
		"servers":    g.NumHosts(),
		"zones":      g.NumZones(),
		"chains":     g.NumChains(),
	}
	staleFields(v, out)
	return out
}

func summary(_ context.Context, tl []*view.View, _ url.Values) (any, error) {
	v := tl[len(tl)-1]
	sum := v.Summary()
	out := map[string]any{
		"generation":         v.Generation(),
		"names":              sum.Names,
		"servers":            sum.Servers,
		"vulnerable_servers": sum.VulnerableServers,
		"affected_names":     sum.AffectedNames,
		"tcb_mean":           sum.TCB.Mean(),
		"tcb_median":         sum.TCB.Median(),
		"tcb_max":            sum.TCB.Max(),
		"direct_mean":        sum.DirectMean,
		"owned_mean":         sum.OwnedMean,
	}
	staleFields(v, out)
	return out, nil
}

func tcb(v *view.View, name string, out map[string]any) error {
	tcb, err := v.TCB(name)
	if err != nil {
		return err
	}
	out["tcb_size"], out["tcb"] = len(tcb), tcb
	return nil
}

func bottleneck(v *view.View, name string, out map[string]any) error {
	res, err := v.Bottleneck(name)
	if err != nil {
		return err
	}
	out["cut"], out["cut_size"] = res.Cut, res.Size
	out["safe_in_cut"], out["vuln_in_cut"] = res.SafeInCut, res.VulnInCut
	return nil
}

func audit(v *view.View, name string, out map[string]any) error {
	findings, err := v.Audit(name)
	if err != nil {
		return err
	}
	list := make([]map[string]string, 0, len(findings))
	for _, f := range findings {
		list = append(list, map[string]string{
			"severity": f.Severity.String(),
			"kind":     f.Kind.String(),
			"finding":  f.String(),
		})
	}
	out["findings"] = list
	return nil
}

func (a *API) stats(_ context.Context, tl []*view.View, _ url.Values) (any, error) {
	v := tl[len(tl)-1]
	out := dimensions(v)
	if a.Stats != nil {
		a.Stats(v, out)
	}
	return out, nil
}

func generations(_ context.Context, tl []*view.View, _ url.Values) (any, error) {
	out := make([]map[string]any, 0, len(tl))
	for _, v := range tl {
		g := dimensions(v)
		if v.Merged() {
			g["changed"] = len(v.Changed())
		}
		out = append(out, g)
	}
	return map[string]any{"retained": len(tl), "generations": out}, nil
}

// genParam parses an int64 query parameter, with a default when absent.
func genParam(q url.Values, key string, def int64) (int64, error) {
	raw := q.Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequest(fmt.Errorf("bad ?%s=%q: %w", key, raw, err))
	}
	return v, nil
}

// between diffs the generation range the query names — ?fromKey=
// defaults to the oldest retained generation, ?toKey= to the latest —
// within the timeline snapshot the defaults came from.
func between(ctx context.Context, tl []*view.View, q url.Values, fromKey, toKey string) (*delta.Delta, error) {
	from, err := genParam(q, fromKey, tl[0].Generation())
	if err != nil {
		return nil, err
	}
	to, err := genParam(q, toKey, tl[len(tl)-1].Generation())
	if err != nil {
		return nil, err
	}
	if from > to {
		return nil, badRequest(fmt.Errorf("%s=%d exceeds generation %d", fromKey, from, to))
	}
	d, err := view.Between(ctx, tl, from, to)
	if err != nil {
		return nil, notFound(err)
	}
	return d, nil
}

func diff(ctx context.Context, tl []*view.View, q url.Values) (any, error) {
	return between(ctx, tl, q, "from", "to")
}

// watch flags drifting names: TCB grown by at least ?grow= hosts (default
// 1) since generation ?since= (default the oldest retained), plus names
// whose TCB crossed the absolute ?limit= threshold between the
// generations.
func watch(ctx context.Context, tl []*view.View, q url.Values) (any, error) {
	grow, err := genParam(q, "grow", 1)
	if err != nil {
		return nil, err
	}
	limit, err := genParam(q, "limit", 0)
	if err != nil {
		return nil, err
	}
	d, err := between(ctx, tl, q, "since", "")
	if err != nil {
		return nil, err
	}
	grew := make([]map[string]any, 0)
	for _, c := range d.Grew(int(grow)) {
		grew = append(grew, map[string]any{
			"name": c.Name, "old_tcb": c.OldTCB, "new_tcb": c.NewTCB, "growth": c.Growth(),
			"tcb_added": c.TCBAdded,
		})
	}
	crossed := make([]map[string]any, 0)
	if limit > 0 {
		for _, c := range d.Changed {
			if int64(c.OldTCB) <= limit && int64(c.NewTCB) > limit {
				crossed = append(crossed, map[string]any{
					"name": c.Name, "old_tcb": c.OldTCB, "new_tcb": c.NewTCB, "limit": limit,
				})
			}
		}
	}
	// Zombie dependencies never arise within one owner's timeline (zone
	// cuts are first-observation-wins immutable); they surface when
	// diffing independent recordings — dnssurvey -diff / DiffLogs — so
	// the watch response does not carry a perpetually empty field.
	return map[string]any{
		"since":         d.FromGen,
		"to":            d.ToGen,
		"min_growth":    grow,
		"grew":          grew,
		"crossed_limit": crossed,
	}, nil
}
