package core

import (
	"testing"

	"clash/internal/bitkey"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0); err == nil {
		t.Error("NewTable(0) succeeded, want error")
	}
	if _, err := NewTable(65); err == nil {
		t.Error("NewTable(65) succeeded, want error")
	}
	tab, err := NewTable(24)
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyBits() != 24 || tab.entries.Len() != 0 {
		t.Errorf("fresh table wrong: bits=%d len=%d", tab.KeyBits(), tab.entries.Len())
	}
}

func TestTableActiveEntryForFindsUniqueLeaf(t *testing.T) {
	tab, err := NewTable(7)
	if err != nil {
		t.Fatal(err)
	}
	tab.put(&Entry{Group: bitkey.MustParseGroup("011*"), Active: false})
	tab.put(&Entry{Group: bitkey.MustParseGroup("0110*"), Active: true})
	tab.put(&Entry{Group: bitkey.MustParseGroup("01011*"), Active: true})

	e, ok := tab.activeEntryFor(bitkey.MustParse("0110101"))
	if !ok || e.Group.String() != "0110*" {
		t.Errorf("activeEntryFor(0110101) = %v,%v; want 0110*", e, ok)
	}
	e, ok = tab.activeEntryFor(bitkey.MustParse("0101101"))
	if !ok || e.Group.String() != "01011*" {
		t.Errorf("activeEntryFor(0101101) = %v,%v; want 01011*", e, ok)
	}
	if _, ok := tab.activeEntryFor(bitkey.MustParse("1111111")); ok {
		t.Error("key outside all active groups should not resolve")
	}
}

func TestTableLongestPrefixMatch(t *testing.T) {
	tab, err := NewTable(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"011*", "01011*", "010110*", "0110*", "01100*"} {
		tab.put(&Entry{Group: bitkey.MustParseGroup(g), Active: true})
	}
	// Paper Figure 2 / case (c): key 0101010 matches at most 4 bits.
	if got := tab.longestPrefixMatch(bitkey.MustParse("0101010")); got != 4 {
		t.Errorf("longestPrefixMatch(0101010) = %d, want 4", got)
	}
	if got := tab.longestPrefixMatch(bitkey.MustParse("1111111")); got != 0 {
		t.Errorf("longestPrefixMatch(1111111) = %d, want 0", got)
	}
	if got := tab.longestPrefixMatch(bitkey.MustParse("0110001")); got != 5 {
		t.Errorf("longestPrefixMatch(0110001) = %d, want 5", got)
	}
}

func TestTableEntriesSortedByDepthThenPrefix(t *testing.T) {
	tab, err := NewTable(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"01100*", "011*", "0110*", "010110*", "01011*"} {
		tab.put(&Entry{Group: bitkey.MustParseGroup(g), Active: true})
	}
	got := tab.Entries()
	want := []string{"011*", "0110*", "01011*", "01100*", "010110*"}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Group.String() != w {
			t.Errorf("entry %d = %s, want %s", i, got[i].Group.String(), w)
		}
	}
}

func TestTableValidateActivePrefixFree(t *testing.T) {
	tab, err := NewTable(7)
	if err != nil {
		t.Fatal(err)
	}
	tab.put(&Entry{Group: bitkey.MustParseGroup("011*"), Active: true})
	tab.put(&Entry{Group: bitkey.MustParseGroup("0101*"), Active: true})
	if err := prefixFree(tab.ActiveGroups()); err != nil {
		t.Errorf("disjoint active groups flagged: %v", err)
	}
	tab.put(&Entry{Group: bitkey.MustParseGroup("0110*"), Active: true})
	if err := prefixFree(tab.ActiveGroups()); err == nil {
		t.Error("nested active groups not flagged")
	}
}
