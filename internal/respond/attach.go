package respond

import "memdos/internal/stream"

// Attach subscribes the engine to a hub's alarm feed and pumps raise and
// clear events into Observe until the returned stop function is called
// (or the hub closes). buffer sizes the subscription channel; events
// beyond it are shed by the hub's best-effort delivery (see the
// guarantee documented in internal/stream/api.go) and counted in the
// hub's subscriber_dropped metric. The engine does not recover a shed
// edge: a lost edge stays lost until the opposite edge arrives. After a
// lost raise the session stays unmitigated, because every tick rule
// that escalates needs the alarm set. After a lost clear the engine
// still believes the alarm is up. Each later raise is then a duplicate
// and is ignored, and Tick keeps escalating: with DefaultConfig, one
// raise at t=1 and a Tick every second to t=600, it made 20
// escalations, 4 migrations and 28 actuator calls for an attack that had
// already ended. Size buffer for the worst-case burst so nothing is shed.
//
// The pump advances engine time from event timestamps only. Deployments
// whose alarm stream can go quiet while mitigation is active must also
// call Tick periodically (as cmd/memdosd does from the hub's decision
// timestamps) so back-off hysteresis keeps progressing.
func Attach(hub *stream.Hub, eng *Engine, buffer int) (stop func()) {
	ch, cancel := hub.Subscribe(buffer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			eng.Observe(ev.Session, ev.Time, ev.Raised)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
