package repro.layout

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{col, lit, when}
import repro.core.TableSchema

/** A data layout: a total mapping of rows to partition ids (BIDs).
  *
  * Layouts are pure routing functions; they carry no data. Each layout can
  * route a row locally (`bidOf`, used by the sample-based generators and the
  * simulation metadata builder) and as a Catalyst expression (`bidColumn`,
  * used to materialize the BID column for Parquet writes).
  */
trait Layout {
  /** Stable identifier; doubles as the MTS state id. */
  def id: String

  /** Number of partitions this layout can produce (BIDs are 0 until this). */
  def numPartitions: Int

  /** Route one row; `get` maps a schema column index to its encoded value. */
  def bidOf(get: Int => Double): Int

  /** Route as a Catalyst expression over the encoded DataFrame. */
  def bidColumn(schema: TableSchema): Column
}

/** Equi-depth range partitioning on a single column — the paper's default
  * "partition by arrival time / sort column" layout (§IV-A).
  *
  * @param colIdx      schema index of the partitioning column
  * @param innerBounds ascending inner boundaries; BID = number of bounds
  *                    strictly below the value, so k = innerBounds.length + 1
  */
final case class RangeLayout(id: String, colName: String, colIdx: Int,
                             innerBounds: Array[Double]) extends Layout {
  require(innerBounds.sameElements(innerBounds.sorted), "bounds must be ascending")
  override def numPartitions: Int = innerBounds.length + 1

  override def bidOf(get: Int => Double): Int = bidOfValue(get(colIdx))

  /** First index whose bound exceeds v (binary search over ascending bounds). */
  def bidOfValue(v: Double): Int = {
    var lo = 0; var hi = innerBounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (v < innerBounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  override def bidColumn(schema: TableSchema): Column = {
    val c = col(colName)
    // when-chain keeps this a pure Catalyst expression (k is small, <= 64)
    innerBounds.zipWithIndex.foldRight(lit(innerBounds.length): Column) {
      case ((b, i), rest) => when(c < lit(b), lit(i)).otherwise(rest)
    }
  }
}

object RangeLayout {
  /** Build an equi-depth range layout on `colName` from a sample of values. */
  def equiDepth(id: String, colName: String, values: Array[Double], k: Int,
                schema: TableSchema): RangeLayout = {
    require(k >= 1, "need at least one partition")
    require(values.nonEmpty, "need sample values to derive bounds")
    val sorted = values.sorted
    val bounds = (1 until k).map { i =>
      sorted(math.min(sorted.length - 1, (i.toLong * sorted.length / k).toInt))
    }.distinct.toArray
    RangeLayout(id, colName, schema.indexOf(colName), bounds)
  }
}
