"""Reference double-auction clearing, written against the market rules
rather than the production code.

The production clearing holds curves as sorted columns and finds the
trade with searches and running sums over them. The unit-quantum oracle
below instead expands every order into unit quanta
(it only accepts integer quantities), scans unit pairs for the largest
feasible trade, and reads the price bounds straight off the unit
arrays. Agreement between two such different mechanisms on random
books is strong evidence both implement the intended market.

Rules implemented here, independently of src/:

* Trade quantity is the largest q where the q-th highest-value demand
  unit still pays at least the q-th cheapest supply unit.
* The clearing price is pinned between the last traded prices and the
  first untraded prices on each side; a degenerate interval gives that
  price, otherwise the midpoint. A partially traded order leaves its
  own price as the first untraded price on its side.
* With no feasible trade the price is the midpoint of the best bid and
  best ask when both exist, else the price floor.
* Orders strictly inside the money fill completely; orders exactly at
  the clearing price are rationed in ascending order-id order with at
  most one partial fill per side.

Orders are plain (order_id, price, quantity) tuples so the oracle
shares no data structures with the package.

The second half of this file is the order-by-order walk over (price,
quantity, order_id) rows that the package used before its curves became
columns: the same market, with the float operations in the order the
array passes must reproduce bit for bit. The last part walks the
day-ahead schedule the way it ran while forecast steps carried order
ids, named so that their string order is their step number.
"""


def _unit_list(orders, highest_first):
    """One (price, order_id) entry per unit of quantity, in trade order."""
    units = []
    key = (lambda o: (-o[1], o[0])) if highest_first else (lambda o: (o[1], o[0]))
    for order_id, price, quantity in sorted(orders, key=key):
        if quantity != int(quantity):
            raise ValueError("oracle handles integer quantities only")
        units.extend((price, order_id) for _ in range(int(quantity)))
    return units


def _prefix_fills(units, q):
    fills = {}
    for price, order_id in units[:q]:
        fills[order_id] = fills.get(order_id, 0.0) + 1.0
    return fills


def random_book(rng, index=0):
    """Random small book: ([(id, price, qty), ...] buys, [...] sells).

    Integer prices and quantities keep every comparison exact. Every
    fourth book draws prices from ten coarse levels so price ties and
    at-price rationing occur often instead of almost never.
    """
    n_buy = int(rng.integers(0, 5))
    n_sell = int(rng.integers(0, 5))
    if index % 4 == 0:
        price = lambda: float(rng.integers(1, 11) * 10)
    else:
        price = lambda: float(rng.integers(1, 100))
    buys = [(f"b{i}", price(), float(rng.integers(1, 7))) for i in range(n_buy)]
    sells = [(f"s{i}", price(), float(rng.integers(1, 7))) for i in range(n_sell)]
    return buys, sells


def oracle_clear(buys, sells, price_floor=0.0, price_cap=float("inf")):
    """Clear one book; returns (price, quantity, buy_fills, sell_fills)."""
    d = _unit_list(buys, highest_first=True)
    s = _unit_list(sells, highest_first=False)

    # demand unit values fall and supply unit costs rise, so the set of
    # feasible unit pairs is a prefix
    q = 0
    while q < len(d) and q < len(s) and d[q][0] >= s[q][0]:
        q += 1

    if q == 0:
        if d and s:
            price = (d[0][0] + s[0][0]) / 2.0
        else:
            price = price_floor
        return price, 0.0, {}, {}

    d_at, s_at = d[q - 1][0], s[q - 1][0]
    d_next = d[q][0] if q < len(d) else None
    s_next = s[q][0] if q < len(s) else None
    lo = s_at if d_next is None else max(s_at, d_next)
    hi = d_at if s_next is None else min(d_at, s_next)
    price = lo if lo == hi else (lo + hi) / 2.0
    price = min(max(price, price_floor), price_cap)

    # every unit in the prefix prices at or better than the clearing
    # price, and within one price level the expansion already ordered
    # units by ascending order id, so prefix counting reproduces
    # full-fill-then-ration exactly
    return price, float(q), _prefix_fills(d, q), _prefix_fills(s, q)


# ----------------------------------------------------------------------
# order-by-order walk: the bit-exact reference for the array clearing
# ----------------------------------------------------------------------
#
# The package holds step curves as sorted columns and clears them with
# array passes. The functions below are the same market as plain loops
# over (price, quantity, order_id) rows, in the operation order the
# array passes must reproduce bit for bit: the cumulative quantities are
# running sums, the remaining quantity a running difference.


def walk_sort(rows, buy):
    """Trade order: demand by descending price, supply by ascending
    price, ties by ascending order id; the sort is stable."""
    if buy:
        return sorted(rows, key=lambda s: (-s[0], s[2]))
    return sorted(rows, key=lambda s: (s[0], s[2]))


def walk_aggregate(curves):
    """Area demand: every feeder's rows re-sorted as one curve."""
    return walk_sort([s for rows in curves for s in rows], buy=True)


def walk_spans(rows):
    """(cumulative quantity, price) spans of sorted rows."""
    spans = []
    cum = 0.0
    for price, quantity, _ in rows:
        cum += quantity
        spans.append((cum, price))
    return spans


def walk_clear(d_rows, s_rows, price_floor=0.0, price_cap=float("inf")):
    """(price, quantity) of sorted demand and supply rows."""
    d_spans = walk_spans(d_rows)
    s_spans = walk_spans(s_rows)
    qty = 0.0
    d_at = s_at = None
    di = si = 0
    while di < len(d_spans) and si < len(s_spans):
        d_cum, d_price = d_spans[di]
        s_cum, s_price = s_spans[si]
        if d_price < s_price:
            break
        step_end = min(d_cum, s_cum)
        qty = step_end
        d_at, s_at = d_price, s_price
        if d_cum <= step_end:
            di += 1
        if s_cum <= step_end:
            si += 1
    if qty <= 0.0:
        if d_rows and s_rows:
            return (d_rows[0][0] + s_rows[0][0]) / 2.0, 0.0
        return price_floor, 0.0
    d_next = d_spans[di][1] if di < len(d_spans) else None
    s_next = s_spans[si][1] if si < len(s_spans) else None
    lo = s_at if d_next is None else max(s_at, d_next)
    hi = d_at if s_next is None else min(d_at, s_next)
    price = lo if lo == hi else (lo + hi) / 2.0
    return min(max(price, price_floor), price_cap), qty


def walk_fill(rows, price, quantity, buy):
    """(fills, marginal id) of one side's sorted rows."""
    better = (lambda p: p > price) if buy else (lambda p: p < price)
    fills = {}
    marginal = None
    remaining = quantity
    at_price = []
    for s in rows:
        if better(s[0]):
            take = min(s[1], remaining)
            fills[s[2]] = fills.get(s[2], 0.0) + take
            remaining -= take
        elif s[0] == price:
            at_price.append(s)
    at_price.sort(key=lambda s: s[2])
    for s in at_price:
        if remaining <= 0.0:
            break
        take = min(s[1], remaining)
        fills[s[2]] = fills.get(s[2], 0.0) + take
        remaining -= take
        if take < s[1]:
            marginal = s[2]
            break
    return fills, marginal


def fills_by_id(curve, fills):
    """{order id: fill} of a fill column over its curve's trade order,
    keyed in first-fill order; repeated ids add their fills in fill
    order. The walks and the oracle report fills this way."""
    assert len(fills) <= len(curve)
    out = {}
    for oid, fill in zip(curve.ranks.names(curve.rank).tolist(), fills.tolist()):
        out[oid] = out[oid] + fill if oid in out else fill
    return out


def walk_clear_and_allocate(d_rows, s_rows, price_floor=0.0, price_cap=float("inf")):
    """(price, quantity, buy fills, sell fills, marginal id) of sorted rows."""
    price, qty = walk_clear(d_rows, s_rows, price_floor, price_cap)
    if qty <= 0.0:
        return price, qty, {}, {}, None
    buys, m_buy = walk_fill(d_rows, price, qty, buy=True)
    sells, m_sell = walk_fill(s_rows, price, qty, buy=False)
    return price, qty, buys, sells, m_buy if m_buy is not None else m_sell


# ----------------------------------------------------------------------
# the day-ahead schedule through forecast ids
# ----------------------------------------------------------------------
#
# Forecast steps used to carry order ids: the area curve put equal
# prices in id string order, then in feeder order, and each feeder's
# position was read back from its own rows. The package now ranks the
# steps by their numbers instead; these functions keep the id path as
# rows, with ids zero-padded (``__forecast000002`` before
# ``__forecast000010``) so that id order is step order.


def walk_quantity_at(rows, price):
    """Demand at or above price: a left fold over the sorted rows."""
    total = 0.0
    for p, q, _ in walk_sort(rows, buy=True):
        if p >= price:
            total += q
    return total


def feedback_rows(window):
    """Availability feedback of a window of demand rows, as rows.

    The mean willingness over the window at each distinct price, highest
    first; a step wherever it rises, named ``__forecast{k:06d}`` after
    the price's position k. Of 0.0 and -0.0 the first seen in trade order
    names the level, as in a Python set.
    """
    prices = sorted({p for rows in window for p, _, _ in walk_sort(rows, buy=True)}, reverse=True)
    steps, prev_q = [], 0.0
    for k, p in enumerate(prices):
        q_here = 0.0
        for rows in window:
            q_here += walk_quantity_at(rows, p)
        q_here /= len(window)
        if q_here > prev_q:
            steps.append((p, q_here - prev_q, f"__forecast{k:06d}"))
            prev_q = q_here
    return steps


def id_path_schedule(forecasts, bulk_price, renewables_price, renewables_kw, bulk_kw, price_floor, price_cap):
    """(price, area kW, {feeder: kW}) of one hour from {feeder: rows}.

    Every feeder's rows merge into one curve sorted by price, then id,
    then feeder order; it clears against the two area blocks, and each
    feeder's position is its own rows' quantity at the cleared price.
    """
    blocks = [(renewables_price, renewables_kw, "__area_renewables"), (bulk_price, bulk_kw, "__area_bulk")]
    supply = walk_sort([b for b in blocks if b[1] > 0], buy=False)
    price, qty = walk_clear(walk_aggregate(forecasts.values()), supply, price_floor, price_cap)
    return price, qty, {fid: walk_quantity_at(rows, price) if qty > 0 else 0.0 for fid, rows in forecasts.items()}
