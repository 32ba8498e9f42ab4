package dnsname

import "strings"

// TLD classification tables for the July-2004 DNS snapshot the paper
// surveyed. The survey spanned 196 distinct TLDs: the generic TLDs active
// at the time plus the ISO 3166 country-code TLDs.

// Kind classifies a top-level domain.
type Kind int

const (
	// KindUnknown marks a label that was not a delegated TLD in 2004.
	KindUnknown Kind = iota
	// KindGeneric marks a generic TLD (com, net, edu, ...).
	KindGeneric
	// KindCountry marks an ISO 3166 country-code TLD.
	KindCountry
	// KindInfra marks the infrastructure TLD (arpa).
	KindInfra
)

func (k Kind) String() string {
	switch k {
	case KindGeneric:
		return "gTLD"
	case KindCountry:
		return "ccTLD"
	case KindInfra:
		return "infra"
	default:
		return "unknown"
	}
}

// GenericTLDs lists the generic TLDs delegated as of July 2004, in the
// order used by Figure 3 of the paper (aero and int have the largest TCBs).
var GenericTLDs = []string{
	"aero", "int", "name", "mil", "info", "edu", "biz", "gov",
	"org", "net", "com", "coop", "museum", "pro",
}

// CountryTLDs lists ISO 3166 ccTLDs delegated as of 2004 (the paper's
// corpus covered 196 TLDs total across both classes).
var CountryTLDs = []string{
	"ac", "ad", "ae", "af", "ag", "ai", "al", "am", "an", "ao", "aq", "ar",
	"as", "at", "au", "aw", "az", "ba", "bb", "bd", "be", "bf", "bg", "bh",
	"bi", "bj", "bm", "bn", "bo", "br", "bs", "bt", "bv", "bw", "by", "bz",
	"ca", "cc", "cd", "cf", "cg", "ch", "ci", "ck", "cl", "cm", "cn", "co",
	"cr", "cu", "cv", "cx", "cy", "cz", "de", "dj", "dk", "dm", "do", "dz",
	"ec", "ee", "eg", "er", "es", "et", "fi", "fj", "fk", "fm", "fo", "fr",
	"ga", "gd", "ge", "gf", "gg", "gh", "gi", "gl", "gm", "gn", "gp", "gq",
	"gr", "gs", "gt", "gu", "gw", "gy", "hk", "hm", "hn", "hr", "ht", "hu",
	"id", "ie", "il", "im", "in", "io", "iq", "ir", "is", "it", "je", "jm",
	"jo", "jp", "ke", "kg", "kh", "ki", "km", "kn", "kp", "kr", "kw", "ky",
	"kz", "la", "lb", "lc", "li", "lk", "lr", "ls", "lt", "lu", "lv", "ly",
	"ma", "mc", "md", "mg", "mh", "mk", "ml", "mm", "mn", "mo", "mp", "mq",
	"mr", "ms", "mt", "mu", "mv", "mw", "mx", "my", "mz", "na", "nc", "ne",
	"nf", "ng", "ni", "nl", "no", "np", "nr", "nu", "nz", "om", "pa", "pe",
	"pf", "pg", "ph", "pk", "pl", "pm", "pn", "pr", "ps", "pt", "pw", "py",
	"qa", "re", "ro", "ru", "rw", "sa", "sb", "sc", "sd", "se", "sg", "sh",
	"si", "sj", "sk", "sl", "sm", "sn", "so", "sr", "st", "sv", "sy", "sz",
	"tc", "td", "tf", "tg", "th", "tj", "tk", "tm", "tn", "to", "tp", "tr",
	"tt", "tv", "tw", "tz", "ua", "ug", "uk", "um", "us", "uy", "uz", "va",
	"vc", "ve", "vg", "vi", "vn", "vu", "wf", "ws", "ye", "yt", "yu", "za",
	"zm", "zw",
}

var tldKind = func() map[string]Kind {
	m := make(map[string]Kind, len(GenericTLDs)+len(CountryTLDs)+1)
	for _, t := range GenericTLDs {
		m[t] = KindGeneric
	}
	for _, t := range CountryTLDs {
		m[t] = KindCountry
	}
	m["arpa"] = KindInfra
	return m
}()

// KindOf classifies the TLD of a canonical name (or a bare TLD label).
func KindOf(name string) Kind {
	return tldKind[TLD(name)]
}

// IsTLD reports whether the canonical name is exactly a known 2004 TLD.
func IsTLD(name string) bool {
	if name == "" || CountLabels(name) != 1 {
		return false
	}
	return tldKind[name] != KindUnknown
}

// ccSecondLevel lists the well-known "effective TLD" second-level zones
// used under ccTLDs in 2004: registrations happen beneath them, so the
// registered domain is three labels deep (bbc.co.uk, rkc.lviv.ua).
// This plays the role the public-suffix list plays today.
var ccSecondLevel = map[string]map[string]bool{
	"uk": setOf("co", "org", "ac", "gov", "net", "sch", "me", "ltd", "plc", "nhs", "mod"),
	"au": setOf("com", "net", "org", "edu", "gov", "asn", "id"),
	"nz": setOf("co", "net", "org", "ac", "govt", "school", "gen", "maori"),
	"jp": setOf("co", "ne", "or", "ac", "ad", "ed", "go", "gr", "lg"),
	"kr": setOf("co", "ne", "or", "ac", "go", "re", "pe"),
	"br": setOf("com", "net", "org", "gov", "edu", "mil", "art", "adv"),
	"ar": setOf("com", "net", "org", "gov", "edu", "mil", "int"),
	"mx": setOf("com", "net", "org", "gob", "edu"),
	"tr": setOf("com", "net", "org", "gov", "edu", "mil", "k12", "av", "bel"),
	"za": setOf("co", "net", "org", "gov", "ac", "edu", "web"),
	"cn": setOf("com", "net", "org", "gov", "edu", "ac", "bj", "sh"),
	"tw": setOf("com", "net", "org", "gov", "edu", "idv"),
	"hk": setOf("com", "net", "org", "gov", "edu", "idv"),
	"in": setOf("co", "net", "org", "gov", "ac", "res", "ernet", "nic"),
	"th": setOf("co", "net", "or", "go", "ac", "in"),
	"sg": setOf("com", "net", "org", "gov", "edu", "per"),
	"my": setOf("com", "net", "org", "gov", "edu", "mil", "name"),
	"id": setOf("co", "net", "or", "go", "ac", "web", "sch"),
	"ph": setOf("com", "net", "org", "gov", "edu", "mil"),
	"il": setOf("co", "net", "org", "gov", "ac", "muni", "idf", "k12"),
	"ua": setOf("com", "net", "org", "gov", "edu", "in",
		// Ukrainian regional second-level zones; the paper's most
		// vulnerable name, www.rkc.lviv.ua, registers under one of these.
		"lviv", "kiev", "kharkov", "odessa", "dnepropetrovsk", "donetsk",
		"crimea", "cherkassy", "chernigov", "lutsk", "poltava", "rovno",
		"sumy", "ternopil", "uzhgorod", "vinnica", "zaporizhzhe", "zhitomir"),
	"ru": setOf("com", "net", "org", "msk", "spb", "nov"),
	"pl": setOf("com", "net", "org", "gov", "edu", "waw", "wroc", "krakow"),
	"by": setOf("com", "net", "org", "gov", "minsk"),
	"it": setOf("gov", "edu"),
	"us": setOf("dni", "fed", "isa", "kids", "nsn"),
}

func setOf(labels ...string) map[string]bool {
	m := make(map[string]bool, len(labels))
	for _, l := range labels {
		m[l] = true
	}
	return m
}

// EffectiveTLD returns the effective public suffix of a canonical name:
// either its TLD, or a registered second-level zone such as "co.uk" or
// "lviv.ua". The root returns "". The result is a suffix of name, found
// by scanning from its end: no allocation.
func EffectiveTLD(name string) string {
	if name == "" {
		return ""
	}
	i := strings.LastIndexByte(name, '.')
	tld := name[i+1:]
	if i < 0 {
		return tld
	}
	if sl, ok := ccSecondLevel[tld]; ok {
		j := strings.LastIndexByte(name[:i], '.')
		if sl[name[j+1:i]] {
			return name[j+1:]
		}
	}
	return tld
}

// RegisteredDomain returns the registered ("bailiwick") domain of a
// canonical name: one label beneath its effective TLD. Names that are
// themselves a TLD or public suffix have no registered domain. Like
// EffectiveTLD it returns a suffix of name and allocates nothing.
//
//	RegisteredDomain("www.cs.cornell.edu") == "cornell.edu"
//	RegisteredDomain("www.rkc.lviv.ua")    == "rkc.lviv.ua"
func RegisteredDomain(name string) (string, error) {
	if name == "" {
		return "", ErrNoRegisteredD
	}
	etld := EffectiveTLD(name)
	if etld == "" {
		// An empty last label (a trailing dot): the suffix is zero labels
		// deep and the registered domain is that empty label.
		return "", nil
	}
	if len(etld) == len(name) {
		return "", ErrNoRegisteredD
	}
	// name[:len(name)-len(etld)] ends with the dot before the suffix.
	head := name[:len(name)-len(etld)-1]
	return name[strings.LastIndexByte(head, '.')+1:], nil
}

// SameBailiwick reports whether two canonical names share a registered
// domain. Names without a registered domain are never in any bailiwick.
func SameBailiwick(a, b string) bool {
	ra, errA := RegisteredDomain(a)
	rb, errB := RegisteredDomain(b)
	return errA == nil && errB == nil && ra == rb
}
