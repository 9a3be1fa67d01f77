package respond

import "memdos/internal/stream"

// Attach makes the engine an observer of the hub (Hub.AddObserver).
// The hub calls Observe on the session's shard goroutine at every raise
// and clear, in order and without shedding, so the engine's alarm state
// is the hub's, and Advance at every other in-order decision, so each
// session's ladder escalates and backs off on its own sample time with
// no Tick. It calls Forget when the session closes, and nothing the
// closed session still had queued reaches the engine after that. stop
// unregisters the engine; once stop has returned the hub calls it no
// more. buffer is unused: no channel stands between hub and engine.
//
// Because the engine runs on a shard goroutine with hub locks held, its
// Actuator must not call back into the hub, and a slow actuator delays
// detection on that shard.
func Attach(hub *stream.Hub, eng *Engine, buffer int) (stop func()) {
	return hub.AddObserver(eng)
}
