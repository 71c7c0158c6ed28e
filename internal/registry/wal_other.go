//go:build !linux

package registry

import (
	"errors"
	"os"
)

// preallocate declines: without fallocate every segment grows by
// appends, as on a Linux filesystem that lacks it.
func preallocate(*os.File, int64, int64) error { return errors.ErrUnsupported }
