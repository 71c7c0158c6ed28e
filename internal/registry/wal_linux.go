//go:build linux

package registry

import (
	"os"
	"syscall"
)

// preallocate reserves n bytes of f starting at off with fallocate(2)
// mode 0: the file size grows to off+n and the new range reads as
// zeros. It fails on filesystems without fallocate (EOPNOTSUPP); the
// caller then keeps the segment unallocated. The call goes through
// SyscallConn, which holds the descriptor for its duration, so a
// concurrent Close cannot recycle it — and, unlike Fd, leaves the
// file's non-blocking mode alone.
func preallocate(f *os.File, off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) {
		for ferr = syscall.Fallocate(int(fd), 0, off, n); ferr == syscall.EINTR; ferr = syscall.Fallocate(int(fd), 0, off, n) {
		}
	}); err != nil {
		return err
	}
	if ferr != nil {
		return &os.PathError{Op: "fallocate", Path: f.Name(), Err: ferr}
	}
	return nil
}
