package daemon

import (
	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

// Config is what Build assembles a system from. Each of Profiles, keyed
// by application, serves sessions as sdsb:<App> and sds:<App> beside the
// profile-free raw; Cascade, if set, scores at its own window every
// ScoreStride samples; Actuator, if set, gets a respond.Engine.
type Config struct {
	Hub         stream.Config
	Profiles    map[string]core.Profile
	Cascade     *dnn.Cascade
	ScoreStride int
	Actuator    respond.Actuator
}

// System is an assembled serving system.
type System struct {
	Hub     *stream.Hub
	Engine  *respond.Engine // nil without an Actuator
	Handler *Server
	detach  func()
}

// Build assembles the serving system memdosd runs. On error it closes
// whatever it had started.
func Build(cfg Config) (_ *System, err error) {
	sys := &System{Hub: stream.NewHub(cfg.Hub), detach: func() {}}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	if err := sys.Hub.RegisterProfile("raw", func() (core.Detector, error) { return core.NewRawThreshold(0.5) }); err != nil {
		return nil, err
	}
	for app, prof := range cfg.Profiles {
		if err := sys.Hub.RegisterProfile("sdsb:"+app, func() (core.Detector, error) { return core.NewSDSB(prof, core.DefaultParams()) }); err != nil {
			return nil, err
		}
		if err := sys.Hub.RegisterProfile("sds:"+app, func() (core.Detector, error) { return core.NewSDS(prof, core.DefaultParams()) }); err != nil {
			return nil, err
		}
	}
	if cfg.Cascade != nil {
		cs, err := NewCascadeScorer(cfg.Cascade, 0, dnn.ScorerOptions{})
		if err != nil {
			return nil, err
		}
		if err := sys.Hub.AttachScorer(cs, stream.ScorerConfig{Stride: cfg.ScoreStride}); err != nil {
			return nil, err
		}
	}
	if cfg.Actuator != nil {
		if sys.Engine, err = respond.New(respond.DefaultConfig(), cfg.Actuator); err != nil {
			return nil, err
		}
		sys.detach = sys.Hub.AddObserver(sys.Engine)
	}
	sys.Handler = New(sys.Hub, sys.Engine)
	return sys, nil
}

// Close closes (and so drains) the hub, then detaches the engine.
func (sys *System) Close() error {
	defer sys.detach()
	return sys.Hub.Close()
}
