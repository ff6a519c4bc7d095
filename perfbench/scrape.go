package main

import (
	"codecomp/internal/obsv"
)

// scrapes holds one /metrics scrape per server process.
type scrapes []obsv.Parsed

func scrapeAll(procs []*proc) (scrapes, error) {
	out := make(scrapes, len(procs))
	for i, p := range procs {
		ps, err := scrape(p.url())
		if err != nil {
			return nil, err
		}
		out[i] = ps
	}
	return out, nil
}

// total sums a counter family over every process and every label set
// whose labels include match (nil matches all).
func (s scrapes) total(name string, match map[string]string) float64 {
	v := 0.0
	for _, p := range s {
		f, ok := p[name]
		if !ok {
			continue
		}
		for _, ser := range f.Series {
			if matches(ser.Labels, match) {
				v += ser.Value
			}
		}
	}
	return v
}

// hist sums a histogram family's observation count and sum (seconds)
// the same way.
func (s scrapes) hist(name string, match map[string]string) (count, sum float64) {
	for _, p := range s {
		f, ok := p[name]
		if !ok {
			continue
		}
		for _, ser := range f.Series {
			if matches(ser.Labels, match) {
				count += ser.Hist.Count
				sum += ser.Hist.Sum
			}
		}
	}
	return count, sum
}

func matches(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// scrapeDelta differences two scrape sets of the same processes.
type scrapeDelta struct{ before, after scrapes }

func (d scrapeDelta) counter(name string, match map[string]string) float64 {
	return d.after.total(name, match) - d.before.total(name, match)
}

// hist is a histogram family's observation count and sum (seconds)
// over the window.
func (d scrapeDelta) hist(name string, match map[string]string) (count, sum float64) {
	c1, s1 := d.after.hist(name, match)
	c0, s0 := d.before.hist(name, match)
	return c1 - c0, s1 - s0
}

// meanUs is the mean observation of a histogram family over the window,
// in µs (0 when nothing was observed).
func (d scrapeDelta) meanUs(name string, match map[string]string) float64 {
	c, s := d.hist(name, match)
	if c <= 0 {
		return 0
	}
	return s / c * 1e6
}
