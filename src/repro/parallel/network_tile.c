/* Compiled tile for the simulated network's bookkeeping: the same bits as
 * the numpy code.
 *
 * Two entry points, the fast tier beneath repro.parallel.network_tile:
 *
 *   network_shift_rounds  one schedule of shift rounds: every message's
 *                         size and flight time, the clock recurrence, the
 *                         clock readings the barrier and the exchange
 *                         bracket need, and the append to the ledger's
 *                         round log (numpy_shift_rounds =
 *                         message_time_us + CommLedger.record_round +
 *                         VirtualClock.shift_rounds);
 *   ledger_fold           the float half of the ledger's fold: bytes,
 *                         and total, sq_total, min and max of both
 *                         histogram columns per link row (numpy_fold =
 *                         ufunc.at in message order).
 *
 * Each reads what outlives a call - the network's clock and round log, a
 * schedule's tables and buffers - through a struct the caller bound once
 * (struct network, struct schedule).
 *
 * The contract is bit identity with the numpy code, which stays the
 * reference; the loader checks both against each other before it hands
 * this one out.  What makes that possible here:
 *
 * 1. Every step is a sequential IEEE-754 operation in a fixed order.  A
 *    flight is (rtt / 2 + overhead) + (double)nbytes / bandwidth, the
 *    association of message_time_us, its first sum taken once by the
 *    caller as Python takes it; the int64 -> double conversion rounds to
 *    nearest in both tiers.  -ffp-contract=off keeps every product and
 *    sum its own rounding.
 *
 * 2. ufunc.at applies its updates one index at a time in index order, and
 *    the recurrence t = max(t, (t + flight)[by_receiver]) is per element:
 *    the loops below run the same operations in the same order.
 *
 * 3. np.maximum / np.minimum, elementwise and in ufunc.at, return their
 *    first operand when it is NaN or strictly larger (smaller), the
 *    second otherwise - on a tie too; MAX and MIN below say the same.  A
 *    reduction (.max(), .min()) propagates NaN.  Which of +0 and -0 a
 *    reduction returns depends on numpy's blocking, but no clock, size or
 *    flight time is ever -0: a clock starts at +0 and only adds
 *    non-negative times, and a flight is a sum with a non-negative
 *    quotient.
 *
 * 4. An int64 sum wraps in numpy; it is summed here as uint64, which
 *    wraps the same way without undefined behaviour.
 *
 * Nothing is written to the clock or the log until every size has been
 * found good, so a refusal leaves the network untouched.
 */
#include <stddef.h>
#include <stdint.h>

#define MAX(a, b) (((a) > (b) || (a) != (a)) ? (a) : (b))
#define MIN(a, b) (((a) < (b) || (a) != (a)) ? (a) : (b))

/* what network_shift_rounds answers: 0, or 1 + the message whose size
 * is negative, or NO_ROOM when the log cannot take the schedule */
#define NO_ROOM (-1)

/* a network: its ranks, the flight-time constants, the clock, and the
 * ledger's round log (capacity entries per column) */
struct network {
    ptrdiff_t p;
    double base;      /* rtt / 2 + per-message overhead */
    double bandwidth; /* bytes per us */
    double *t;        /* (p,) */
    ptrdiff_t capacity;
    int64_t *log_src, *log_dst, *log_nbytes;
    double *log_flight;
    uint8_t *log_collective;
};

/* a schedule of R shift rounds of p messages each on one network (m = R p
 * in round order, message k of a round sent by rank k): its tables, the
 * sizes it is run with, and what a run leaves */
struct schedule {
    const struct network *net;
    ptrdiff_t rounds;
    const int64_t *src, *dst;       /* (m,) */
    const ptrdiff_t *by_receiver;   /* (R, p): the message rank r waits for */
    const uint8_t *collective;      /* (m,) */
    const int64_t *nbytes;          /* (m,): the sizes it is run with */
    double *flight;                 /* (m,) */
    double *history;                /* (R + 1, p): clocks before, after each round */
    double *readings;               /* (R + 2,): elapsed before, spread after each
                                       round, elapsed after */
    int64_t total;                  /* bytes of all m messages */
    double elapsed;                 /* the last reading */
};

static double row_max(const double *x, ptrdiff_t n)
{
    double m = x[0];
    for (ptrdiff_t i = 1; i < n; i++)
        m = MAX(m, x[i]);
    return m;
}

static double row_min(const double *x, ptrdiff_t n)
{
    double m = x[0];
    for (ptrdiff_t i = 1; i < n; i++)
        m = MIN(m, x[i]);
    return m;
}

ptrdiff_t network_shift_rounds(struct schedule *s, ptrdiff_t pending)
{
    const struct network *net = s->net;
    const ptrdiff_t p = net->p, rounds = s->rounds, m = rounds * p;
    if (pending < 0 || pending + m > net->capacity)
        return NO_ROOM;

    uint64_t total = 0;
    for (ptrdiff_t k = 0; k < m; k++) {
        const int64_t nb = s->nbytes[k];
        if (nb < 0)
            return 1 + k;
        s->flight[k] = net->base + (double)nb / net->bandwidth;
        total += (uint64_t)nb;
    }
    s->total = (int64_t)total;

    double *h = s->history;
    for (ptrdiff_t r = 0; r < p; r++)
        h[r] = net->t[r];
    for (ptrdiff_t i = 0; i < rounds; i++) {
        const double *now = h + i * p, *flight = s->flight + i * p;
        const ptrdiff_t *by = s->by_receiver + i * p;
        double *next = h + (i + 1) * p;
        for (ptrdiff_t r = 0; r < p; r++) {
            const double arrive = now[by[r]] + flight[by[r]];
            next[r] = MAX(now[r], arrive);
        }
    }

    double *readings = s->readings;
    readings[0] = row_max(h, p);
    for (ptrdiff_t i = 1; i <= rounds; i++)
        readings[i] = row_max(h + i * p, p) - row_min(h + i * p, p);
    const double *last = h + rounds * p;
    s->elapsed = readings[rounds + 1] = row_max(last, p);
    for (ptrdiff_t r = 0; r < p; r++)
        net->t[r] = last[r];

    for (ptrdiff_t k = 0; k < m; k++) {
        net->log_src[pending + k] = s->src[k];
        net->log_dst[pending + k] = s->dst[k];
        net->log_nbytes[pending + k] = s->nbytes[k];
        net->log_flight[pending + k] = s->flight[k];
        net->log_collective[pending + k] = s->collective[k];
    }
    return 0;
}

/* one histogram column of the link rows: Histogram's float fields */
struct hist_columns {
    double *total, *sq_total, *min, *max;
};

static void observe(const struct hist_columns *c, ptrdiff_t row, double v)
{
    c->total[row] += v;
    c->sq_total[row] += v * v;
    c->min[row] = MIN(c->min[row], v);
    c->max[row] = MAX(c->max[row], v);
}

void ledger_fold(ptrdiff_t n, const ptrdiff_t *rows, const int64_t *nbytes,
                 const double *flight, int64_t *bytes, const struct hist_columns *size,
                 const struct hist_columns *flight_columns)
{
    for (ptrdiff_t k = 0; k < n; k++) {
        const ptrdiff_t row = rows[k];
        bytes[row] = (int64_t)((uint64_t)bytes[row] + (uint64_t)nbytes[k]);
        observe(size, row, (double)nbytes[k]);
        observe(flight_columns, row, flight[k]);
    }
}
