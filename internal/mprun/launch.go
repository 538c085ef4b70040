package mprun

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// killGrace is how long a canceled launch waits for workers to report their
// partial outcomes before killing the processes outright.
const killGrace = 5 * time.Second

// worker is the launcher's handle on one rank process.
type worker struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	// emu serializes control writes: the cancel broadcast may race the
	// initial start message only through this mutex.
	emu sync.Mutex
}

func (w *worker) send(m coordMsg) error {
	w.emu.Lock()
	defer w.emu.Unlock()
	return w.enc.Encode(m)
}

// Launch runs a size-rank job with every rank in its own OS process. It
// re-executes the current binary (workers self-select via MaybeWorker),
// collects each worker's mesh address, distributes the full address list plus
// that rank's job, and gathers the per-rank outcomes.
//
// Canceling ctx broadcasts a cancel to every worker; ranks that wind down
// within a grace period still report partial outcomes (Canceled set), after
// which any stragglers are killed. The returned error is the lowest-rank
// failure, if any.
func Launch(ctx context.Context, size int, timeout time.Duration, specFor func(rank int) *Spec) ([]*RankOutcome, error) {
	if size < 1 {
		return nil, fmt.Errorf("mprun: size %d < 1", size)
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mprun: locating executable: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mprun: coordinator listen: %w", err)
	}
	defer ln.Close()

	procs := make([]*exec.Cmd, size)
	defer func() {
		// Belt and braces: whatever path we leave by, no worker outlives the
		// launch. Kill is a no-op on already-exited processes.
		for _, cmd := range procs {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
			if cmd != nil {
				cmd.Wait()
			}
		}
	}()
	for r := 0; r < size; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envWorker+"=1",
			envCoord+"="+ln.Addr().String(),
			fmt.Sprintf("%s=%d", envRank, r),
			fmt.Sprintf("%s=%d", envSize, size),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("mprun: spawning rank %d: %w", r, err)
		}
		procs[r] = cmd
	}

	// Rendezvous: each worker dials in and announces its rank and mesh
	// address; connection order is arbitrary, the hello sorts them out.
	workers := make([]*worker, size)
	addrs := make([]string, size)
	if d, ok := ln.(*net.TCPListener); ok {
		d.SetDeadline(time.Now().Add(timeout))
	}
	for i := 0; i < size; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("mprun: waiting for workers (%d/%d registered): %w", i, size, err)
		}
		w := &worker{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
		var hello helloMsg
		conn.SetReadDeadline(time.Now().Add(timeout))
		if err := w.dec.Decode(&hello); err != nil {
			return nil, fmt.Errorf("mprun: worker hello: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		if hello.Rank < 0 || hello.Rank >= size || workers[hello.Rank] != nil {
			return nil, fmt.Errorf("mprun: unexpected worker rank %d", hello.Rank)
		}
		workers[hello.Rank] = w
		addrs[hello.Rank] = hello.MeshAddr
	}
	defer func() {
		for _, w := range workers {
			w.conn.Close()
		}
	}()

	for r, w := range workers {
		if err := w.send(coordMsg{Start: &startMsg{Addrs: addrs, Timeout: timeout, Job: specFor(r)}}); err != nil {
			return nil, fmt.Errorf("mprun: starting rank %d: %w", r, err)
		}
	}

	outcomes := make([]*RankOutcome, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r, w := range workers {
		wg.Add(1)
		go func(r int, w *worker) {
			defer wg.Done()
			var done doneMsg
			if err := w.dec.Decode(&done); err != nil {
				errs[r] = fmt.Errorf("mprun: rank %d died without reporting: %w", r, err)
				return
			}
			outcomes[r] = done.Outcome
			if done.Err != "" {
				errs[r] = fmt.Errorf("mprun: rank %d: %s", r, done.Err)
			}
		}(r, w)
	}
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()

	select {
	case <-allDone:
	case <-ctx.Done():
		for _, w := range workers {
			w.send(coordMsg{Cancel: true})
		}
		select {
		case <-allDone:
		case <-time.After(killGrace):
			for _, cmd := range procs {
				if cmd.Process != nil {
					cmd.Process.Kill()
				}
			}
			<-allDone // decoders fail once the processes are dead
		}
	}

	for r, err := range errs {
		if err != nil {
			return outcomes, err
		}
		if outcomes[r] == nil {
			return outcomes, fmt.Errorf("mprun: rank %d reported no outcome", r)
		}
	}
	return outcomes, nil
}
