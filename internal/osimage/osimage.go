// Package osimage catalogs the kernel images components run on: nanOS,
// miniOS, and Linux variants. Each image carries the attributes the
// evaluation depends on — memory footprint (Table 6.1), boot-phase durations
// (Table 6.2), and source/compiled line counts for the TCB-size argument
// (§6.2) — plus the library of "known good images" the Builder is restricted
// to (§5.2).
package osimage

import (
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Kind classifies an image's kernel.
type Kind uint8

const (
	// NanOS is the NSA's minimal single-threaded kernel: just enough to
	// build VMs. Small enough for static analysis (§5.7).
	NanOS Kind = iota
	// MiniOS is Xen's stub-domain environment: multithreaded, still tiny.
	MiniOS
	// Linux is a paravirtualized Linux (pvops) with a trimmed userspace.
	Linux
	// LinuxFull is the stock server distribution a monolithic Dom0 runs.
	LinuxFull
)

func (k Kind) String() string {
	switch k {
	case NanOS:
		return "nanOS"
	case MiniOS:
		return "miniOS"
	case Linux:
		return "linux"
	default:
		return "linux-full"
	}
}

// Image describes one bootable kernel+userspace image.
type Image struct {
	Name  string
	Kind  Kind
	MemMB int // default reservation, per Table 6.1

	// KernelBoot is time from domain start to kernel init complete.
	KernelBoot sim.Duration
	// ServiceBoot is time from kernel init to the component being ready to
	// serve (userspace bring-up, daemon start). Hardware init is separate
	// and charged by the component that performs it.
	ServiceBoot sim.Duration

	// SourceLoC / CompiledLoC support TCB accounting (§6.2).
	SourceLoC   int
	CompiledLoC int
}

// BootTime is the total software bring-up cost of the image.
func (im Image) BootTime() sim.Duration { return im.KernelBoot + im.ServiceBoot }

// Catalog is the Builder's library of known good images (§5.2): to avoid
// parsing user-provided data, the privileged Builder instantiates only
// images registered here; guest kernels outside the library boot through
// the bootloader image instead.
type Catalog struct {
	images map[string]Image
}

// Lookup finds an image by name.
func (c *Catalog) Lookup(name string) (Image, error) {
	im, ok := c.images[name]
	if !ok {
		return Image{}, fmt.Errorf("osimage: %q not in known-good library: %w", name, xtypes.ErrNotFound)
	}
	return im, nil
}

// register adds an image to the library.
func (c *Catalog) register(im Image) { c.images[im.Name] = im }

// names lists registered image names (unordered).
func (c *Catalog) names() []string {
	out := make([]string, 0, len(c.images))
	for n := range c.images {
		out = append(out, n)
	}
	return out
}

// Component image names used throughout the platform.
const (
	ImgBootstrapper = "nanos-bootstrapper"
	ImgBuilder      = "nanos-builder"
	ImgXenStoreL    = "minios-xenstore-logic"
	ImgXenStoreS    = "minios-xenstore-state"
	ImgConsole      = "linux-console"
	ImgPCIBack      = "linux-pciback"
	ImgNetBack      = "linux-netback"
	ImgBlkBack      = "linux-blkback"
	ImgToolstack    = "linux-toolstack"
	ImgQemu         = "minios-qemu"
	ImgDom0         = "linux-dom0"
	ImgGuestPV      = "linux-guest-pv"
	ImgGuestHVM     = "linux-guest-hvm"
	ImgGuestMicro   = "nanos-guest-micro"
	ImgBootloader   = "minios-bootloader"
)

// DefaultCatalog returns the library used by both platform profiles. Memory
// figures are Table 6.1's; the Dom0 image uses XenServer's default 750MB.
// LoC figures follow §6.2: Linux 7.6M source / 400K compiled; the nanOS
// components total 13K/8K; miniOS sits between.
func DefaultCatalog() *Catalog {
	c := &Catalog{images: make(map[string]Image)}
	for _, im := range []Image{
		{Name: ImgBootstrapper, Kind: NanOS, MemMB: 32,
			KernelBoot: 120 * sim.Millisecond, ServiceBoot: 80 * sim.Millisecond,
			SourceLoC: 5_000, CompiledLoC: 3_000},
		{Name: ImgBuilder, Kind: NanOS, MemMB: 64,
			KernelBoot: 120 * sim.Millisecond, ServiceBoot: 180 * sim.Millisecond,
			SourceLoC: 8_000, CompiledLoC: 5_000},
		{Name: ImgXenStoreL, Kind: MiniOS, MemMB: 32,
			KernelBoot: 250 * sim.Millisecond, ServiceBoot: 250 * sim.Millisecond,
			SourceLoC: 32_000, CompiledLoC: 14_000},
		{Name: ImgXenStoreS, Kind: MiniOS, MemMB: 32,
			KernelBoot: 250 * sim.Millisecond, ServiceBoot: 150 * sim.Millisecond,
			SourceLoC: 30_000, CompiledLoC: 13_000},
		{Name: ImgConsole, Kind: Linux, MemMB: 128,
			// Skips PCI enumeration and jumps to I/O-port init (§5.5), so it
			// reaches a login prompt quickly.
			KernelBoot: 3500 * sim.Millisecond, ServiceBoot: 13400 * sim.Millisecond,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgPCIBack, Kind: Linux, MemMB: 256,
			KernelBoot: 4 * sim.Second, ServiceBoot: 5 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgNetBack, Kind: Linux, MemMB: 128,
			KernelBoot: 4 * sim.Second, ServiceBoot: 3 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgBlkBack, Kind: Linux, MemMB: 128,
			KernelBoot: 4 * sim.Second, ServiceBoot: 3 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgToolstack, Kind: Linux, MemMB: 128,
			KernelBoot: 4 * sim.Second, ServiceBoot: 4 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgQemu, Kind: MiniOS, MemMB: 64,
			KernelBoot: 250 * sim.Millisecond, ServiceBoot: 400 * sim.Millisecond,
			SourceLoC: 450_000, CompiledLoC: 180_000},
		{Name: ImgDom0, Kind: LinuxFull, MemMB: 750,
			// A full server userspace: sequential service bring-up dominates.
			KernelBoot: 9 * sim.Second, ServiceBoot: 15 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgGuestPV, Kind: Linux, MemMB: 1024,
			KernelBoot: 4 * sim.Second, ServiceBoot: 9 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgGuestHVM, Kind: Linux, MemMB: 1024,
			KernelBoot: 6 * sim.Second, ServiceBoot: 11 * sim.Second,
			SourceLoC: 7_600_000, CompiledLoC: 400_000},
		{Name: ImgGuestMicro, Kind: NanOS, MemMB: 64,
			// A unikernel-style serverless function image: single-purpose,
			// no userspace bring-up to speak of. Millisecond-class boot is
			// what makes thousands-per-second churn (Nanvix-style density)
			// feasible; the Builder's scrub and construct costs then dominate
			// the cold-start path.
			KernelBoot: 2 * sim.Millisecond, ServiceBoot: 2 * sim.Millisecond,
			SourceLoC: 15_000, CompiledLoC: 9_000},
		{Name: ImgBootloader, Kind: MiniOS, MemMB: 32,
			KernelBoot: 250 * sim.Millisecond, ServiceBoot: 500 * sim.Millisecond,
			SourceLoC: 20_000, CompiledLoC: 9_000},
	} {
		c.register(im)
	}
	return c
}

// XenLoC is the hypervisor's own code size (§6.2), common to both profiles.
const (
	XenSourceLoC   = 280_000
	XenCompiledLoC = 70_000
)
