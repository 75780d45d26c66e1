package locks_test

import (
	"testing"

	"sympack/internal/lint/analysistest"
	"sympack/internal/lint/locks"
)

func TestMutexGuard(t *testing.T) {
	analysistest.Run(t, "testdata/mutexguard", locks.MutexGuard, "a")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", locks.LockOrder, "a")
}

// TestCrossPackage pins the fact flow: the acquisition of lockdep's
// cache mutex inside Fill must be visible at lockuse's call site, where
// it closes the cycle with the directly-witnessed reverse edge.
func TestCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", locks.LockOrder, "lockdep", "lockuse")
}
