package tpch

import (
	"fmt"
	"strings"

	"github.com/spilly-db/spilly/internal/colstore"
	"github.com/spilly-db/spilly/internal/data"
	"github.com/spilly-db/spilly/internal/xhash"
)

// CurrentDate is the spec's reference date used to derive return flags and
// line statuses.
var CurrentDate = data.ParseDate("1995-06-17")

var (
	startDate = data.ParseDate("1992-01-01")
	lastOrder = data.ParseDate("1998-08-02") // ENDDATE - 151 days
	orderDays = lastOrder - startDate + 1
)

// stream is a deterministic per-column random stream: values depend only on
// (seed, row), so generation is order-independent and reproducible.
type stream struct{ seed uint64 }

func str(table string, column int) stream {
	return stream{seed: xhash.String(table, 0x7cf) + uint64(column)*0x9e3779b97f4a7c15}
}

func (s stream) u64(row int64) uint64 { return xhash.U64(uint64(row), s.seed) }

// intn returns a uniform value in [lo, hi].
func (s stream) intn(row int64, lo, hi int64) int64 {
	return lo + int64(s.u64(row)%uint64(hi-lo+1))
}

// sub derives an independent sub-stream (for per-row variable-length data).
func (s stream) sub(row int64) stream {
	return stream{seed: s.u64(row) ^ 0xd1b54a32d192ed03}
}

// money returns a uniform cent-precision value in [lo, hi] dollars.
func (s stream) money(row int64, lo, hi int64) float64 {
	cents := s.intn(row, lo*100, hi*100)
	return float64(cents) / 100
}

func (s stream) pick(row int64, words []string) string {
	return words[s.u64(row)%uint64(len(words))]
}

// text produces a comment of n words from the spec vocabulary.
func (s stream) text(row int64, minWords, maxWords int64) string {
	sub := s.sub(row)
	n := s.intn(row, minWords, maxWords)
	var b strings.Builder
	for i := int64(0); i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sub.pick(i, commentWords))
	}
	return b.String()
}

// vstring produces a pseudo-random alphanumeric string (addresses).
func (s stream) vstring(row int64, minLen, maxLen int64) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,"
	sub := s.sub(row)
	n := s.intn(row, minLen, maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[sub.u64(int64(i))%uint64(len(alphabet))]
	}
	return string(b)
}

// phone renders the spec's phone format with the nation-derived country
// code (Q22 selects on the country-code substring).
func phone(nationkey int64, s stream, row int64) string {
	sub := s.sub(row)
	return fmt.Sprintf("%d-%03d-%03d-%04d", nationkey+10,
		sub.intn(0, 100, 999), sub.intn(1, 100, 999), sub.intn(2, 1000, 9999))
}

// Gen generates TPC-H tables at a given scale factor.
type Gen struct {
	SF float64
	// GroupSize overrides the row-group size (0 = colstore default).
	GroupSize int
}

func (g *Gen) suppliers() int64 { return maxi(int64(g.SF*suppliersPerSF), 10) }
func (g *Gen) customers() int64 { return maxi(int64(g.SF*customersPerSF), 150) }
func (g *Gen) parts() int64     { return maxi(int64(g.SF*partsPerSF), 200) }
func (g *Gen) orders() int64    { return maxi(int64(g.SF*ordersPerSF), 1500) }

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Table generates one table by name.
func (g *Gen) Table(name string) *colstore.MemTable {
	switch name {
	case Region:
		return g.genRegion()
	case Nation:
		return g.genNation()
	case Supplier:
		return g.genSupplier()
	case Customer:
		return g.genCustomer()
	case Part:
		return g.genPart()
	case PartSupp:
		return g.genPartSupp()
	case Orders:
		t, _ := g.genOrdersAndLineitem()
		return t
	case Lineitem:
		_, t := g.genOrdersAndLineitem()
		return t
	default:
		panic(fmt.Sprintf("tpch: unknown table %q", name))
	}
}

// All generates every table. Orders and lineitem are co-generated so the
// derived columns (o_orderstatus, o_totalprice) are consistent.
func (g *Gen) All() map[string]*colstore.MemTable {
	out := map[string]*colstore.MemTable{
		Region:   g.genRegion(),
		Nation:   g.genNation(),
		Supplier: g.genSupplier(),
		Customer: g.genCustomer(),
		Part:     g.genPart(),
		PartSupp: g.genPartSupp(),
	}
	o, l := g.genOrdersAndLineitem()
	out[Orders] = o
	out[Lineitem] = l
	return out
}

func (g *Gen) newTable(name string, rows int64) (*colstore.MemTable, *data.Batch) {
	t := colstore.NewMemTable(name, Schemas[name], g.GroupSize)
	b := data.NewBatch(Schemas[name], int(rows))
	return t, b
}

func (g *Gen) genRegion() *colstore.MemTable {
	t, b := g.newTable(Region, 5)
	s := str(Region, 2)
	for i := int64(0); i < 5; i++ {
		b.Cols[0].I = append(b.Cols[0].I, i)
		b.Cols[1].S = append(b.Cols[1].S, regionNames[i])
		b.Cols[2].S = append(b.Cols[2].S, s.text(i, 5, 15))
	}
	b.SetLen(5)
	t.Append(b)
	return t
}

func (g *Gen) genNation() *colstore.MemTable {
	t, b := g.newTable(Nation, 25)
	s := str(Nation, 3)
	for i, n := range nations {
		b.Cols[0].I = append(b.Cols[0].I, int64(i))
		b.Cols[1].S = append(b.Cols[1].S, n.Name)
		b.Cols[2].I = append(b.Cols[2].I, n.Region)
		b.Cols[3].S = append(b.Cols[3].S, s.text(int64(i), 5, 15))
	}
	b.SetLen(25)
	t.Append(b)
	return t
}

func (g *Gen) genSupplier() *colstore.MemTable {
	n := g.suppliers()
	t, b := g.newTable(Supplier, n)
	var (
		sAddr    = str(Supplier, 2)
		sNation  = str(Supplier, 3)
		sPhone   = str(Supplier, 4)
		sBal     = str(Supplier, 5)
		sComment = str(Supplier, 6)
	)
	for i := int64(0); i < n; i++ {
		key := i + 1
		nationkey := sNation.intn(i, 0, 24)
		comment := sComment.text(i, 8, 18)
		// The spec plants "Customer ... Complaints" in 5 of every 10,000
		// supplier comments (Q16 filters them out).
		if key%2000 == 17 {
			comment = "boldly final Customer deposits sleep Complaints " + comment
		}
		b.Cols[0].I = append(b.Cols[0].I, key)
		b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("Supplier#%09d", key))
		b.Cols[2].S = append(b.Cols[2].S, sAddr.vstring(i, 10, 40))
		b.Cols[3].I = append(b.Cols[3].I, nationkey)
		b.Cols[4].S = append(b.Cols[4].S, phone(nationkey, sPhone, i))
		b.Cols[5].F = append(b.Cols[5].F, sBal.money(i, -999, 9999))
		b.Cols[6].S = append(b.Cols[6].S, comment)
	}
	b.SetLen(int(n))
	t.Append(b)
	return t
}

func (g *Gen) genCustomer() *colstore.MemTable {
	n := g.customers()
	t, b := g.newTable(Customer, n)
	var (
		cAddr    = str(Customer, 2)
		cNation  = str(Customer, 3)
		cPhone   = str(Customer, 4)
		cBal     = str(Customer, 5)
		cSeg     = str(Customer, 6)
		cComment = str(Customer, 7)
	)
	for i := int64(0); i < n; i++ {
		key := i + 1
		nationkey := cNation.intn(i, 0, 24)
		b.Cols[0].I = append(b.Cols[0].I, key)
		b.Cols[1].S = append(b.Cols[1].S, fmt.Sprintf("Customer#%09d", key))
		b.Cols[2].S = append(b.Cols[2].S, cAddr.vstring(i, 10, 40))
		b.Cols[3].I = append(b.Cols[3].I, nationkey)
		b.Cols[4].S = append(b.Cols[4].S, phone(nationkey, cPhone, i))
		b.Cols[5].F = append(b.Cols[5].F, cBal.money(i, -999, 9999))
		b.Cols[6].S = append(b.Cols[6].S, cSeg.pick(i, segments))
		b.Cols[7].S = append(b.Cols[7].S, cComment.text(i, 10, 25))
	}
	b.SetLen(int(n))
	t.Append(b)
	return t
}

func (g *Gen) genPart() *colstore.MemTable {
	n := g.parts()
	t, b := g.newTable(Part, n)
	var (
		pName = str(Part, 1)
		pMfgr = str(Part, 2)
		pType = str(Part, 4)
		pSize = str(Part, 5)
		pCont = str(Part, 6)
		pCom  = str(Part, 8)
	)
	for i := int64(0); i < n; i++ {
		key := i + 1
		// P_NAME: 5 distinct color words.
		sub := pName.sub(i)
		var nameParts [5]string
		for j := range nameParts {
			nameParts[j] = colors[sub.intn(int64(j), 0, int64(len(colors)-1))]
		}
		mfgr := pMfgr.intn(i, 1, 5)
		brand := mfgr*10 + pMfgr.intn(i+1<<40, 1, 5)
		tsub := pType.sub(i)
		ptype := tsub.pick(0, typeSyl1) + " " + tsub.pick(1, typeSyl2) + " " + tsub.pick(2, typeSyl3)
		csub := pCont.sub(i)
		container := csub.pick(0, containerSyl1) + " " + csub.pick(1, containerSyl2)
		b.Cols[0].I = append(b.Cols[0].I, key)
		b.Cols[1].S = append(b.Cols[1].S, strings.Join(nameParts[:], " "))
		b.Cols[2].S = append(b.Cols[2].S, fmt.Sprintf("Manufacturer#%d", mfgr))
		b.Cols[3].S = append(b.Cols[3].S, fmt.Sprintf("Brand#%d", brand))
		b.Cols[4].S = append(b.Cols[4].S, ptype)
		b.Cols[5].I = append(b.Cols[5].I, pSize.intn(i, 1, 50))
		b.Cols[6].S = append(b.Cols[6].S, container)
		b.Cols[7].F = append(b.Cols[7].F, retailPrice(key))
		b.Cols[8].S = append(b.Cols[8].S, pCom.text(i, 4, 10))
	}
	b.SetLen(int(n))
	t.Append(b)
	return t
}

// retailPrice is the spec's P_RETAILPRICE formula.
func retailPrice(partkey int64) float64 {
	cents := 90000 + (partkey/10)%20001 + 100*(partkey%1000)
	return float64(cents) / 100
}

// psSuppkey is the spec's part-supplier association: supplier i of part p.
func psSuppkey(partkey, i, suppliers int64) int64 {
	return (partkey+i*(suppliers/suppsPerPart+(partkey-1)/suppliers))%suppliers + 1
}

func (g *Gen) genPartSupp() *colstore.MemTable {
	parts := g.parts()
	suppliers := g.suppliers()
	n := parts * suppsPerPart
	t, b := g.newTable(PartSupp, n)
	var (
		psQty  = str(PartSupp, 2)
		psCost = str(PartSupp, 3)
		psCom  = str(PartSupp, 4)
	)
	for p := int64(1); p <= parts; p++ {
		for i := int64(0); i < suppsPerPart; i++ {
			row := (p-1)*suppsPerPart + i
			b.Cols[0].I = append(b.Cols[0].I, p)
			b.Cols[1].I = append(b.Cols[1].I, psSuppkey(p, i, suppliers))
			b.Cols[2].I = append(b.Cols[2].I, psQty.intn(row, 1, 9999))
			b.Cols[3].F = append(b.Cols[3].F, psCost.money(row, 1, 1000))
			b.Cols[4].S = append(b.Cols[4].S, psCom.text(row, 10, 30))
		}
	}
	b.SetLen(int(n))
	t.Append(b)
	return t
}

// orderKey maps order ordinal (0-based) to the spec's sparse key space:
// 8 keys used per block of 32.
func orderKey(ordinal int64) int64 {
	return ordinal/8*32 + ordinal%8 + 1
}

func (g *Gen) genOrdersAndLineitem() (*colstore.MemTable, *colstore.MemTable) {
	orders := g.orders()
	customers := g.customers()
	parts := g.parts()
	suppliers := g.suppliers()
	clerks := maxi(int64(g.SF*1000), 10)

	ot, ob := g.newTable(Orders, orders)
	lt, lb := g.newTable(Lineitem, orders*4)

	var (
		oCust  = str(Orders, 1)
		oDate  = str(Orders, 4)
		oPrio  = str(Orders, 5)
		oClerk = str(Orders, 6)
		oCom   = str(Orders, 8)

		lCount  = str(Lineitem, 100)
		lPart   = str(Lineitem, 1)
		lSupp   = str(Lineitem, 2)
		lQty    = str(Lineitem, 4)
		lDisc   = str(Lineitem, 6)
		lTax    = str(Lineitem, 7)
		lShip   = str(Lineitem, 10)
		lCommit = str(Lineitem, 11)
		lRcpt   = str(Lineitem, 12)
		lInstr  = str(Lineitem, 13)
		lMode   = str(Lineitem, 14)
		lCom    = str(Lineitem, 15)
	)

	lineRows := 0
	for o := int64(0); o < orders; o++ {
		okey := orderKey(o)
		// O_CUSTKEY: uniform over customers not divisible by 3 (the spec
		// leaves one third of customers without orders — Q13, Q22).
		ck := oCust.intn(o, 1, customers)
		for ck%3 == 0 {
			ck = (ck % customers) + 1
		}
		odate := startDate + oDate.intn(o, 0, orderDays-1)
		nLines := lCount.intn(o, 1, 7)

		var totalPrice float64
		fCount, oCount := 0, 0
		for ln := int64(0); ln < nLines; ln++ {
			row := o*8 + ln
			pk := lPart.intn(row, 1, parts)
			sk := psSuppkey(pk, lSupp.intn(row, 0, 3), suppliers)
			qty := float64(lQty.intn(row, 1, 50))
			ep := qty * retailPrice(pk)
			disc := float64(lDisc.intn(row, 0, 10)) / 100
			tax := float64(lTax.intn(row, 0, 8)) / 100
			ship := odate + lShip.intn(row, 1, 121)
			commit := odate + lCommit.intn(row, 30, 90)
			rcpt := ship + lRcpt.intn(row, 1, 30)

			retFlag := "N"
			if rcpt <= CurrentDate {
				if lRcpt.u64(row+1<<40)&1 == 0 {
					retFlag = "R"
				} else {
					retFlag = "A"
				}
			}
			status := "O"
			if ship <= CurrentDate {
				status = "F"
				fCount++
			} else {
				oCount++
			}

			lb.Cols[0].I = append(lb.Cols[0].I, okey)
			lb.Cols[1].I = append(lb.Cols[1].I, pk)
			lb.Cols[2].I = append(lb.Cols[2].I, sk)
			lb.Cols[3].I = append(lb.Cols[3].I, ln+1)
			lb.Cols[4].F = append(lb.Cols[4].F, qty)
			lb.Cols[5].F = append(lb.Cols[5].F, ep)
			lb.Cols[6].F = append(lb.Cols[6].F, disc)
			lb.Cols[7].F = append(lb.Cols[7].F, tax)
			lb.Cols[8].S = append(lb.Cols[8].S, retFlag)
			lb.Cols[9].S = append(lb.Cols[9].S, status)
			lb.Cols[10].I = append(lb.Cols[10].I, ship)
			lb.Cols[11].I = append(lb.Cols[11].I, commit)
			lb.Cols[12].I = append(lb.Cols[12].I, rcpt)
			lb.Cols[13].S = append(lb.Cols[13].S, lInstr.pick(row, instructions))
			lb.Cols[14].S = append(lb.Cols[14].S, lMode.pick(row, shipModes))
			lb.Cols[15].S = append(lb.Cols[15].S, lCom.text(row, 4, 9))
			lineRows++

			totalPrice += ep * (1 + tax) * (1 - disc)
		}

		status := "P"
		if oCount == 0 {
			status = "F"
		} else if fCount == 0 {
			status = "O"
		}
		comment := oCom.text(o, 6, 18)
		// Plant the Q13 "special ... requests" pattern in ~1% of orders.
		if oCom.u64(o+1<<41)%100 == 7 {
			comment = comment + " special packages wake requests"
		}

		ob.Cols[0].I = append(ob.Cols[0].I, okey)
		ob.Cols[1].I = append(ob.Cols[1].I, ck)
		ob.Cols[2].S = append(ob.Cols[2].S, status)
		ob.Cols[3].F = append(ob.Cols[3].F, totalPrice)
		ob.Cols[4].I = append(ob.Cols[4].I, odate)
		ob.Cols[5].S = append(ob.Cols[5].S, oPrio.pick(o, priorities))
		ob.Cols[6].S = append(ob.Cols[6].S, fmt.Sprintf("Clerk#%09d", oClerk.intn(o, 1, clerks)))
		ob.Cols[7].I = append(ob.Cols[7].I, 0)
		ob.Cols[8].S = append(ob.Cols[8].S, comment)
	}
	ob.SetLen(int(orders))
	lb.SetLen(lineRows)
	ot.Append(ob)
	lt.Append(lb)
	return ot, lt
}
