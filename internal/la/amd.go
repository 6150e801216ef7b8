package la

import "math"

// Approximate minimum degree ordering (Amestoy, Davis & Duff, "An approximate
// minimum degree ordering algorithm", SIAM J. Matrix Anal. Appl. 17(4),
// 1996), applied to the pattern of A+Aᵀ.
//
// The elimination runs on a quotient graph: eliminating a pivot turns it into
// an element whose node list Lk is the pivot's external neighbourhood, and
// the nodes adjacent to Lk refer to the element instead of to each other, so
// the graph never grows past the storage of the original pattern. Nodes with
// identical adjacency are merged into supervariables (found by hashing), an
// element whose nodes all lie inside the new one is absorbed into it
// (aggressive absorption), and each node's degree is bounded from above by the
// set differences |Le \ Lk| of its elements instead of being recomputed
// exactly. Rows denser than amdDense(n) are taken out up front and ordered
// last. The order that comes out is a postorder of the assembly tree.

// amdDense is the degree above which a node of the n-node graph is treated as
// dense: removed before the elimination and ordered last.
func amdDense(n int) int {
	return min(n-2, max(16, int(10*math.Sqrt(float64(n)))))
}

// amdFlip encodes a node index as a negative number (and back): a pointer
// amdFlip(k) marks an absorbed object whose parent is k.
func amdFlip(i int) int { return -i - 2 }

// symPattern returns the off-diagonal pattern of A+Aᵀ column by column, with
// duplicates removed: column j holds the rows i ≠ j with a_ij ≠ 0 or a_ji ≠ 0.
// The index array has elbow room past cp[n] for the elements the elimination
// creates.
func symPattern(a *CSR) (cp, ci []int) {
	n := a.Rows
	cp = make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j != i {
				cp[i+1]++
				cp[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		cp[j+1] += cp[j]
	}
	nz := cp[n]
	ci = make([]int, nz+nz/5+2*n)
	next := make([]int, n)
	copy(next, cp[:n])
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j != i {
				ci[next[i]] = j
				next[i]++
				ci[next[j]] = i
				next[j]++
			}
		}
	}
	// Compact each column in place, dropping the second copy of every pair
	// that appears in both A and Aᵀ.
	seen := next
	for i := range seen {
		seen[i] = -1
	}
	nz = 0
	for j := 0; j < n; j++ {
		lo, hi := cp[j], cp[j+1]
		cp[j] = nz
		for _, i := range ci[lo:hi] {
			if seen[i] != j {
				seen[i] = j
				ci[nz] = i
				nz++
			}
		}
	}
	cp[n] = nz
	return cp, ci
}

// amdOrder returns a fill-reducing permutation of 0..n-1 for the square
// matrix a: eliminating the unknowns in the order p[0], p[1], … keeps the
// fill of a factorisation of A+Aᵀ small. Numerical values and the diagonal
// are ignored.
func amdOrder(a *CSR) []int {
	n := a.Rows
	if n == 0 {
		return []int{}
	}
	cp, ci := symPattern(a)
	dense := amdDense(n)
	cnz := cp[n]
	nzmax := len(ci)

	work := make([]int, 8*(n+1))
	length := work[0*(n+1) : 1*(n+1)] // length of each node's or element's list
	nv := work[1*(n+1) : 2*(n+1)]     // supervariable size (<0: in Lk, 0: dead)
	next := work[2*(n+1) : 3*(n+1)]   // degree list / hash bucket successor
	head := work[3*(n+1) : 4*(n+1)]   // degree list heads
	elen := work[4*(n+1) : 5*(n+1)]   // number of elements in a node's list
	degree := work[5*(n+1) : 6*(n+1)] // approximate external degree
	w := work[6*(n+1) : 7*(n+1)]      // set-difference marks (0: dead element)
	hhead := work[7*(n+1) : 8*(n+1)]  // hash bucket heads
	perm := make([]int, n+1)
	last := perm // degree list predecessor / hash key; perm is written at the end

	for k := 0; k < n; k++ {
		length[k] = cp[k+1] - cp[k]
	}
	length[n] = 0
	for i := 0; i <= n; i++ {
		head[i], last[i], next[i], hhead[i] = -1, -1, -1, -1
		nv[i] = 1
		w[i] = 1
		elen[i] = 0
		degree[i] = length[i]
	}
	mark := amdClear(0, 0, w, n)
	// Node n is a dead element: the parent of every dense node.
	elen[n] = -2
	cp[n] = -1
	w[n] = 0

	nel := 0 // nodes eliminated so far
	for i := 0; i < n; i++ {
		d := degree[i]
		switch {
		case d == 0: // isolated node: a dead element and a root on its own
			elen[i] = -2
			nel++
			cp[i] = -1
			w[i] = 0
		case d > dense: // dense node: absorbed into element n, ordered last
			nv[i] = 0
			elen[i] = -1
			nel++
			cp[i] = amdFlip(n)
			nv[n]++
		default:
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			head[d] = i
		}
	}

	mindeg, lemax := 0, 0
	for nel < n {
		// --- Select a node of minimum approximate degree. ---
		k := -1
		for ; mindeg < n; mindeg++ {
			if k = head[mindeg]; k != -1 {
				break
			}
		}
		if next[k] != -1 {
			last[next[k]] = -1
		}
		head[mindeg] = next[k]
		elenk := elen[k]
		nvk := nv[k]
		nel += nvk

		// --- Garbage collection: compact ci when the new element may not fit. ---
		if elenk > 0 && cnz+mindeg >= nzmax {
			for j := 0; j < n; j++ {
				if p := cp[j]; p >= 0 { // live node or element: tag its first entry
					cp[j] = ci[p]
					ci[p] = amdFlip(j)
				}
			}
			q := 0
			for p := 0; p < cnz; {
				j := amdFlip(ci[p])
				p++
				if j >= 0 {
					ci[q] = cp[j]
					cp[j] = q
					q++
					for t := 0; t < length[j]-1; t++ {
						ci[q] = ci[p]
						q++
						p++
					}
				}
			}
			cnz = q
		}

		// --- Construct the new element Lk from k's elements and nodes. ---
		dk := 0
		nv[k] = -nvk
		p := cp[k]
		pk1 := cnz // a fresh list at the end of ci, or in place when k has no elements
		if elenk == 0 {
			pk1 = p
		}
		pk2 := pk1
		for k1 := 1; k1 <= elenk+1; k1++ {
			var e, pj, ln int
			if k1 > elenk {
				e, pj, ln = k, p, length[k]-elenk // k's own node list
			} else {
				e = ci[p]
				p++
				pj, ln = cp[e], length[e]
			}
			for t := 0; t < ln; t++ {
				i := ci[pj]
				pj++
				nvi := nv[i]
				if nvi <= 0 { // dead, or already in Lk
					continue
				}
				dk += nvi
				nv[i] = -nvi
				ci[pk2] = i
				pk2++
				// Take i out of its degree list.
				if next[i] != -1 {
					last[next[i]] = last[i]
				}
				if last[i] != -1 {
					next[last[i]] = next[i]
				} else {
					head[degree[i]] = next[i]
				}
			}
			if e != k { // absorb element e into k
				cp[e] = amdFlip(k)
				w[e] = 0
			}
		}
		if elenk != 0 {
			cnz = pk2
		}
		degree[k] = dk
		cp[k] = pk1
		length[k] = pk2 - pk1
		elen[k] = -2

		// --- Set differences: w[e]-mark = |Le \ Lk| for every element e
		// adjacent to Lk. ---
		mark = amdClear(mark, lemax, w, n)
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			eln := elen[i]
			if eln <= 0 {
				continue
			}
			nvi := -nv[i]
			wnvi := mark - nvi
			for p := cp[i]; p < cp[i]+eln; p++ {
				e := ci[p]
				if w[e] >= mark {
					w[e] -= nvi
				} else if w[e] != 0 { // first sight of a live element
					w[e] = degree[e] + wnvi
				}
			}
		}

		// --- Degree update, pruning and aggressive absorption. ---
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			p1 := cp[i]
			p2 := p1 + elen[i] - 1
			pn := p1
			h, d := 0, 0
			for p := p1; p <= p2; p++ {
				e := ci[p]
				if w[e] == 0 { // absorbed element
					continue
				}
				if dext := w[e] - mark; dext > 0 {
					d += dext
					ci[pn] = e
					pn++
					h += e
				} else { // Le ⊆ Lk: absorb e into k
					cp[e] = amdFlip(k)
					w[e] = 0
				}
			}
			elen[i] = pn - p1 + 1 // the kept elements plus k
			p3 := pn
			p4 := p1 + length[i]
			for p := p2 + 1; p < p4; p++ {
				j := ci[p]
				nvj := nv[j]
				if nvj <= 0 { // dead, or in Lk (now reached through k)
					continue
				}
				d += nvj
				ci[pn] = j
				pn++
				h += j
			}
			if d == 0 { // mass elimination: i goes out together with k
				cp[i] = amdFlip(k)
				nvi := -nv[i]
				dk -= nvi
				nvk += nvi
				nel += nvi
				nv[i] = 0
				elen[i] = -1
				continue
			}
			degree[i] = min(degree[i], d)
			// Put k first in i's element list; at least one entry (k itself
			// or an element absorbed into k) was pruned, so pn < p4.
			ci[pn] = ci[p3]
			ci[p3] = ci[p1]
			ci[p1] = k
			length[i] = pn - p1 + 1
			h %= n
			next[i] = hhead[h]
			hhead[h] = i
			last[i] = h
		}
		degree[k] = dk
		lemax = max(lemax, dk)
		mark = amdClear(mark+lemax, lemax, w, n)

		// --- Supervariable detection: merge nodes of Lk with equal lists. ---
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			if nv[i] >= 0 {
				continue
			}
			h := last[i]
			i = hhead[h]
			hhead[h] = -1
			for ; i != -1 && next[i] != -1; i, mark = next[i], mark+1 {
				ln, eln := length[i], elen[i]
				for p := cp[i] + 1; p < cp[i]+ln; p++ {
					w[ci[p]] = mark
				}
				jlast := i
				for j := next[i]; j != -1; {
					ok := length[j] == ln && elen[j] == eln
					for p := cp[j] + 1; ok && p < cp[j]+ln; p++ {
						ok = w[ci[p]] == mark
					}
					if ok { // absorb j into i
						cp[j] = amdFlip(i)
						nv[i] += nv[j]
						nv[j] = 0
						elen[j] = -1
						j = next[j]
						next[jlast] = j
					} else {
						jlast = j
						j = next[j]
					}
				}
			}
		}

		// --- Finalize Lk and put its nodes back into the degree lists. ---
		p = pk1
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			nvi := -nv[i]
			if nvi <= 0 {
				continue
			}
			nv[i] = nvi
			d := min(degree[i]+dk-nvi, n-nel-nvi)
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			last[i] = -1
			head[d] = i
			mindeg = min(mindeg, d)
			degree[i] = d
			ci[p] = i
			p++
		}
		nv[k] = nvk
		if length[k] = p - pk1; length[k] == 0 { // k is a root of the tree
			cp[k] = -1
			w[k] = 0
		}
		if elenk != 0 {
			cnz = p
		}
	}

	// --- Postorder the assembly tree. cp now holds each object's parent. ---
	for i := 0; i < n; i++ {
		cp[i] = amdFlip(cp[i])
	}
	for j := 0; j <= n; j++ {
		head[j] = -1
	}
	for j := n; j >= 0; j-- { // absorbed nodes into their parent's list
		if nv[j] > 0 {
			continue
		}
		next[j] = head[cp[j]]
		head[cp[j]] = j
	}
	for e := n; e >= 0; e-- { // elements into their parent's list
		if nv[e] <= 0 || cp[e] == -1 {
			continue
		}
		next[e] = head[cp[e]]
		head[cp[e]] = e
	}
	k := 0
	for i := 0; i <= n; i++ {
		if cp[i] == -1 {
			k = treePostorder(i, k, head, next, perm, w)
		}
	}
	// Node n, the dense nodes' parent, is the root visited last, so it is
	// ordered last and perm[:n] is a permutation of 0..n-1.
	return perm[:n]
}

// amdClear makes w[i] < mark for every live entry, resetting the marks when
// mark would overflow.
func amdClear(mark, lemax int, w []int, n int) int {
	if mark < 2 || mark+lemax < 0 {
		for i := 0; i < n; i++ {
			if w[i] != 0 {
				w[i] = 1
			}
		}
		mark = 2
	}
	return mark
}

// treePostorder numbers the subtree rooted at j in postorder, starting at k,
// consuming the child lists head/next. It returns the next free number.
func treePostorder(j, k int, head, next, post, stack []int) int {
	top := 0
	stack[0] = j
	for top >= 0 {
		p := stack[top]
		if i := head[p]; i != -1 {
			head[p] = next[i]
			top++
			stack[top] = i
			continue
		}
		top--
		post[k] = p
		k++
	}
	return k
}
