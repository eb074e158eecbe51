//go:build !linux

package main

import "time"

// cpuPlan is a no-op off Linux (see sys_linux.go).
type cpuPlan struct{}

func planCPUs() cpuPlan                        { return cpuPlan{} }
func (cpuPlan) String() string                 { return "no CPU pinning (not Linux)" }
func (cpuPlan) pinDriver() func()              { return func() {} }
func (cpuPlan) forNodes(fn func() error) error { return fn() }

// sleepUntil blocks until t (see sys_linux.go for why Linux differs).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
