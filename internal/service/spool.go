package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/field"
)

// Spool is the service's durable state: one directory per job holding
//
//	<dir>/<job-id>/manifest.json    the Job record (spec + lifecycle)
//	<dir>/<job-id>/snapshot.json    field checkpoint boundary record (field jobs)
//	<dir>/<job-id>/snapshot.json.journal  its append-only epoch-report journal
//	<dir>/<job-id>/result.json      terminal payload (done jobs)
//	<dir>/_dead/<job-id>.json       dead-letter copies for operator review
//
// Every write is atomic (temp file + rename in the same directory), so a
// crash at any instant leaves each file either at its previous version or
// its new one — never torn. Recovery is therefore a pure function of the
// directory contents. Names starting with "_" are spool-internal areas,
// never job directories (job IDs are hex, so no collision is possible).
type Spool struct {
	dir string
}

// deadDir is the dead-letter area under the spool root.
const deadDir = "_dead"

// OpenSpool creates (if needed) and opens a spool directory.
func OpenSpool(dir string) (*Spool, error) {
	if dir == "" {
		return nil, errors.New("service: empty spool dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: open spool: %w", err)
	}
	return &Spool{dir: dir}, nil
}

// Dir returns the spool's root directory.
func (sp *Spool) Dir() string { return sp.dir }

// JobDir returns (and creates) the job's directory.
func (sp *Spool) JobDir(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", fmt.Errorf("service: bad job id %q", id)
	}
	d := filepath.Join(sp.dir, id)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, nil
}

// jobPath returns the job's directory without creating it.
func (sp *Spool) jobPath(id string) string {
	return filepath.Join(sp.dir, id)
}

// SnapshotPath returns where the job's field checkpoint lives: the
// boundary record, with its epoch-report journal beside it. The runner
// writes both with field.Snapshot.WriteFile, reads them with
// field.ReadSnapshotFile and deletes them with field.RemoveCheckpoint.
func (sp *Spool) SnapshotPath(id string) string {
	return filepath.Join(sp.dir, id, "snapshot.json")
}

// SaveManifest durably records the job's current lifecycle state.
func (sp *Spool) SaveManifest(j *Job) error {
	d, err := sp.JobDir(j.ID)
	if err != nil {
		return err
	}
	// The manifest never embeds the result; it has its own file.
	m := *j
	m.Result = nil
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return field.InstallFile(filepath.Join(d, "manifest.json"), data)
}

// SaveResult durably records a finished job's payload.
func (sp *Spool) SaveResult(id string, result []byte) error {
	d, err := sp.JobDir(id)
	if err != nil {
		return err
	}
	return field.InstallFile(filepath.Join(d, "result.json"), result)
}

// LoadResult returns the job's terminal payload, nil when absent.
func (sp *Spool) LoadResult(id string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(sp.dir, id, "result.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return b, err
}

// MarkDead copies a dead-lettered job's manifest into the dead-letter
// area, giving operators one directory to scan for jobs needing review.
// The job's own manifest (state "dead") remains the durable truth; the
// copy is an index.
func (sp *Spool) MarkDead(j *Job) error {
	d := filepath.Join(sp.dir, deadDir)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	m := *j
	m.Result = nil
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return field.InstallFile(filepath.Join(d, j.ID+".json"), data)
}

// ClearDead removes a job's dead-letter entry (resurrection). Missing
// entries are fine — the manifest, not the index, is authoritative.
func (sp *Spool) ClearDead(id string) error {
	err := os.Remove(filepath.Join(sp.dir, deadDir, id+".json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// DeadLetters lists the job IDs currently in the dead-letter area.
func (sp *Spool) DeadLetters() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(sp.dir, deadDir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Recover scans the spool and rebuilds the job set. Jobs whose manifests
// say queued or running were interrupted: they are flipped back to
// queued (attempt count intact — the runner bumps it at pickup) and
// returned in requeue, oldest first, so recovered jobs re-enter the
// scheduler oldest-first within their class. A preserved NextRun (a
// backoff park or pending recurrence interrupted by the crash) survives
// into the re-queue, so a crash cannot be used to skip a backoff.
// Terminal jobs — including dead-lettered ones — load as-is for API
// visibility. Unreadable manifests are skipped with their error
// recorded, not fatal: one corrupt job must not take the daemon down.
func (sp *Spool) Recover() (jobs []*Job, requeue []string, errs []error) {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return nil, nil, []error{fmt.Errorf("service: scan spool: %w", err)}
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), "_") {
			continue // files and spool-internal areas (_dead) are not jobs
		}
		id := e.Name()
		sp.sweepTemp(id)
		data, err := os.ReadFile(filepath.Join(sp.dir, id, "manifest.json"))
		if err != nil {
			errs = append(errs, fmt.Errorf("service: job %s: %w", id, err))
			continue
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			errs = append(errs, fmt.Errorf("service: job %s: bad manifest: %w", id, err))
			continue
		}
		if j.ID != id {
			errs = append(errs, fmt.Errorf("service: job dir %s holds manifest for %q", id, j.ID))
			continue
		}
		if !j.State.Terminal() {
			j.State = StateQueued
		}
		// Manifests written before the scheduler existed lack the
		// denormalized class/fingerprint; resolve them once here so the
		// rest of the daemon never special-cases manifest vintage.
		if j.Class == "" {
			j.Class = j.Spec.class()
		}
		if j.Fingerprint == "" {
			j.Fingerprint = specFingerprint(&j.Spec)
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if !jobs[i].Created.Equal(jobs[k].Created) {
			return jobs[i].Created.Before(jobs[k].Created)
		}
		return jobs[i].ID < jobs[k].ID
	})
	for _, j := range jobs {
		if j.State == StateQueued {
			requeue = append(requeue, j.ID)
		}
	}
	return jobs, requeue, errs
}

// sweepTemp removes *.tmp* debris a crash mid-write can leave in a job
// directory (the atomic writers' deferred cleanup never ran). Best
// effort: the debris is harmless — renames are atomic, so the named
// files are always complete — it just should not accumulate.
func (sp *Spool) sweepTemp(id string) {
	stale, _ := filepath.Glob(filepath.Join(sp.dir, id, "*.tmp*"))
	for _, p := range stale {
		os.Remove(p)
	}
}
