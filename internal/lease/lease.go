// Package lease holds the lease policy behind the aliveness mechanism
// the paper identifies as the missing piece of UDDI-era Web Service
// discovery (§4.8):
//
//	"the provider of a service obtains a lease when publishing its
//	 service description to the registry. From then on, the provider
//	 must periodically confirm that it is alive. Should a service
//	 crash, it would not be able to renew its lease, and the service
//	 description would be purged from the registry."
//
// Policy decides how long a lease a registry grants. The deadlines
// themselves live on the registry's advert records, which also keep
// the expiry heap and tick the lease.* metrics (internal/registry).
package lease

import "time"

// Policy clamps requested lease durations to what a registry accepts.
type Policy struct {
	// Min and Max bound granted durations; zero-valued bounds default
	// to 1 s and 10 min.
	Min, Max time.Duration
	// Default is granted when the request does not specify a duration;
	// zero defaults to 30 s (Jini's default lease granularity class).
	Default time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Min == 0 {
		p.Min = time.Second
	}
	if p.Max == 0 {
		p.Max = 10 * time.Minute
	}
	if p.Default == 0 {
		p.Default = 30 * time.Second
	}
	return p
}

// Clamp returns the duration the registry actually grants for a
// requested duration (0 means "registry default").
func (p Policy) Clamp(requested time.Duration) time.Duration {
	p = p.withDefaults()
	switch {
	case requested <= 0:
		return p.Default
	case requested < p.Min:
		return p.Min
	case requested > p.Max:
		return p.Max
	default:
		return requested
	}
}
