package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{col, lit}

/** A single-column filter predicate over an encoded table. */
sealed trait Predicate {
  def colName: String

  /** Does the encoded value satisfy the predicate? */
  def matches(value: Double): Boolean

  /** Spark filter expression over the encoded DataFrame. */
  def toColumn: Column

  /** SQL text for the DuckDB oracle. */
  def toSql: String
}

/** Inclusive range predicate `lo <= col <= hi`. */
final case class RangePred(colName: String, lo: Double, hi: Double) extends Predicate {
  require(lo <= hi, s"empty range [$lo, $hi] on $colName")
  override def matches(v: Double): Boolean = v >= lo && v <= hi
  override def toColumn: Column = col(colName) >= lit(lo) && col(colName) <= lit(hi)
  override def toSql: String = s"$colName BETWEEN $lo AND $hi"
}

/** Set-membership predicate `col IN (values)` for dictionary-coded columns. */
final case class InPred(colName: String, values: Set[Double]) extends Predicate {
  require(values.nonEmpty, s"empty IN set on $colName")
  /** Bit `c` set iff code `c` ∈ [0, 64) is among the values: what partition
    * code masks are tested against (computed once, not per evaluation).
    */
  private[repro] val codeMask: Long = values.foldLeft(0L)((m, v) => m | LayoutMetadata.codeBitOrZero(v))
  override def matches(v: Double): Boolean = values.contains(v)
  override def toColumn: Column = col(colName).isin(values.toSeq: _*)
  override def toSql: String = s"$colName IN (${values.toSeq.sorted.mkString(", ")})"
}

/** One query of the stream: a conjunction of predicates.
  *
  * @param id       position in the stream (0-based)
  * @param template index of the generating template (used by the
  *                 Offline-Optimal oracle and for diagnostics)
  */
final case class Query(id: Int, template: Int, preds: Seq[Predicate]) {
  require(preds.nonEmpty, "a query must have at least one predicate")

  def matchesRow(schema: TableSchema, get: Int => Double): Boolean =
    preds.forall(p => p.matches(get(schema.indexOf(p.colName))))

  /** Conjunction as a Spark filter over the encoded DataFrame. */
  def toColumn: Column = preds.map(_.toColumn).reduce(_ && _)

  /** Conjunction as SQL (DuckDB oracle). */
  def toSql: String = preds.map(_.toSql).mkString(" AND ")
}
