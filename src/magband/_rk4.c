/* Fixed-step RK4 for a unit charge in the unit azimuthal field B = (-y/r, x/r, 0).
 *
 * The stage loop of classical._python_rk4, transcribed operation for
 * operation: every product, quotient and sum is the same IEEE double
 * operation in the same order, so with FMA contraction off (-ffp-contract=off)
 * and SSE2 doubles the rows are bit for bit those of the Python loop.
 * rows is the C-contiguous (steps + 1, 6) float64 array x, y, z, vx, vy, vz
 * whose row 0 holds the initial state; rows 1..steps are written.  A stage
 * with r < r_floor stops the loop: its row index is returned and its r stored
 * in *radius.  A full run returns 0.
 */
#include <math.h>

long magband_rk4(double *rows, long steps, double dt, double r_floor, double *radius)
{
    const double half = 0.5 * dt, sixth = dt / 6.0;
    double x = rows[0], y = rows[1], z = rows[2], vx = rows[3], vy = rows[4], vz = rows[5];
    for (long i = 1; i <= steps; i++) {
        double r = sqrt(x * x + y * y);
        if (r < r_floor) { *radius = r; return i; }
        double ax1 = -vz * x / r, ay1 = -vz * y / r, az1 = (vx * x + vy * y) / r;

        double x2 = x + half * vx, y2 = y + half * vy;
        double vx2 = vx + half * ax1, vy2 = vy + half * ay1, vz2 = vz + half * az1;
        r = sqrt(x2 * x2 + y2 * y2);
        if (r < r_floor) { *radius = r; return i; }
        double ax2 = -vz2 * x2 / r, ay2 = -vz2 * y2 / r, az2 = (vx2 * x2 + vy2 * y2) / r;

        double x3 = x + half * vx2, y3 = y + half * vy2;
        double vx3 = vx + half * ax2, vy3 = vy + half * ay2, vz3 = vz + half * az2;
        r = sqrt(x3 * x3 + y3 * y3);
        if (r < r_floor) { *radius = r; return i; }
        double ax3 = -vz3 * x3 / r, ay3 = -vz3 * y3 / r, az3 = (vx3 * x3 + vy3 * y3) / r;

        double x4 = x + dt * vx3, y4 = y + dt * vy3;
        double vx4 = vx + dt * ax3, vy4 = vy + dt * ay3, vz4 = vz + dt * az3;
        r = sqrt(x4 * x4 + y4 * y4);
        if (r < r_floor) { *radius = r; return i; }
        double ax4 = -vz4 * x4 / r, ay4 = -vz4 * y4 / r, az4 = (vx4 * x4 + vy4 * y4) / r;

        x = x + sixth * (vx + 2.0 * (vx2 + vx3) + vx4);
        y = y + sixth * (vy + 2.0 * (vy2 + vy3) + vy4);
        z = z + sixth * (vz + 2.0 * (vz2 + vz3) + vz4);
        vx = vx + sixth * (ax1 + 2.0 * (ax2 + ax3) + ax4);
        vy = vy + sixth * (ay1 + 2.0 * (ay2 + ay3) + ay4);
        vz = vz + sixth * (az1 + 2.0 * (az2 + az3) + az4);
        double *row = rows + 6 * i;
        row[0] = x; row[1] = y; row[2] = z; row[3] = vx; row[4] = vy; row[5] = vz;
    }
    return 0;
}
