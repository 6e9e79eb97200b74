package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseRun(t *testing.T) {
	all := map[string]bool{}
	for _, id := range runners {
		all[id] = true
	}
	withAccuracy := map[string]bool{"accuracy": true}
	for id := range all {
		withAccuracy[id] = true
	}
	for _, tc := range []struct {
		list string
		want map[string]bool // nil: an error
	}{
		{"all", all},
		{"table3", map[string]bool{"table3": true}},
		{" table3 , table4", map[string]bool{"table3": true, "table4": true}},
		{"accuracy", map[string]bool{"accuracy": true}},
		{"all,accuracy", withAccuracy},
		{"tabel3", nil},
		{"table3,tabel4", nil},
		{"table3,", nil},
		{"", nil},
		{"ALL", nil},
	} {
		got, err := parseRun(tc.list)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "table3") {
				t.Errorf("parseRun(%q) = %v, %v; want an error listing the valid ids", tc.list, got, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRun(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}
