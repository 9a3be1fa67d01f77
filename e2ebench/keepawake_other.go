//go:build !linux

package main

import "errors"

const keepAwakeArg = "-keep-awake"

// startKeepAwake does nothing where the platform has no idle scheduling
// class to spin in.
func startKeepAwake() (stop func(), err error) { return func() {}, nil }

func keepAwakeChild([]string) error { return errors.New("-keep-awake: linux only") }
