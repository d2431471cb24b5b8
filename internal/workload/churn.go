package workload

import "fmt"

// ChurnConfig describes a churn workload by its event rates, expressed
// as expected events per 1000 ticks of virtual time — the natural unit
// for comparing against message delays of a few ticks. Zero rates
// disable the corresponding event class.
type ChurnConfig struct {
	JoinRate  float64
	LeaveRate float64
	CrashRate float64
}

// Enabled reports whether the config produces any events at all.
func (c ChurnConfig) Enabled() bool {
	return c.JoinRate > 0 || c.LeaveRate > 0 || c.CrashRate > 0
}

// Validate rejects negative rates.
func (c ChurnConfig) Validate() error {
	if c.JoinRate < 0 || c.LeaveRate < 0 || c.CrashRate < 0 {
		return fmt.Errorf("workload: negative churn rate %+v", c)
	}
	return nil
}
